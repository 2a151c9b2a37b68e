//! The XASR node store: three B+-trees plus statistics over one document.

use crate::stats::Statistics;
use crate::tuple::{NodeTuple, NodeType, TupleRef};
use crate::{Error, Result};
use std::ops::Bound;
use xmldb_storage::{BTree, Env, Seeker};
use xmldb_xml::{Document, XmlWriter};

/// File names backing a document named `name`.
pub struct FileNames {
    /// Clustered index file.
    pub clustered: String,
    /// Label index file.
    pub label: String,
    /// Parent index file.
    pub parent: String,
    /// Text-value index file.
    pub text: String,
    /// Statistics file.
    pub stats: String,
}

/// Derives the storage file names for a document.
pub fn file_names(name: &str) -> FileNames {
    FileNames {
        clustered: format!("{name}.xasr"),
        label: format!("{name}.lbl"),
        parent: format!("{name}.par"),
        text: format!("{name}.val"),
        stats: format!("{name}.stats"),
    }
}

/// A shredded document: clustered index on `in`, covering secondary indexes
/// on `(label, in)` and `(parent_in, in)`, and persisted statistics.
pub struct XasrStore {
    env: Env,
    name: String,
    clustered: BTree,
    label_idx: BTree,
    parent_idx: BTree,
    text_idx: BTree,
    stats: Statistics,
}

impl XasrStore {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        env: Env,
        name: String,
        clustered: BTree,
        label_idx: BTree,
        parent_idx: BTree,
        text_idx: BTree,
        stats: Statistics,
    ) -> Result<XasrStore> {
        Ok(XasrStore {
            env,
            name,
            clustered,
            label_idx,
            parent_idx,
            text_idx,
            stats,
        })
    }

    /// Opens a previously shredded document.
    pub fn open(env: &Env, name: &str) -> Result<XasrStore> {
        let names = file_names(name);
        Ok(XasrStore {
            env: env.clone(),
            name: name.to_string(),
            clustered: BTree::open(env, &names.clustered)?,
            label_idx: BTree::open(env, &names.label)?,
            parent_idx: BTree::open(env, &names.parent)?,
            text_idx: BTree::open(env, &names.text)?,
            stats: Statistics::load(env, &names.stats)?,
        })
    }

    /// True if a document named `name` exists in `env`.
    pub fn exists(env: &Env, name: &str) -> bool {
        env.file_exists(&file_names(name).clustered)
    }

    /// Drops all files of document `name` at once (one log record for a
    /// committed document; see [`Env::remove_files`]).
    pub fn drop_document(env: &Env, name: &str) -> Result<()> {
        let names = file_names(name);
        let mut ids = Vec::new();
        for file in [
            &names.clustered,
            &names.label,
            &names.parent,
            &names.text,
            &names.stats,
        ] {
            if env.file_exists(file) {
                ids.push(env.open_file(file)?);
            }
        }
        env.remove_files(&ids)?;
        Ok(())
    }

    /// Document name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The environment this store lives in.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Document statistics (milestone 4).
    pub fn stats(&self) -> &Statistics {
        &self.stats
    }

    /// Replaces the statistics used by cost estimation. This models the
    /// paper's "due to unlucky estimates, the second engine decided for an
    /// unoptimal query plan": Figure 7's engine 2 is our engine 1 with
    /// corrupted statistics.
    pub fn override_stats(&mut self, stats: Statistics) {
        self.stats = stats;
    }

    /// Total number of nodes (tuples in the clustered index).
    pub fn node_count(&self) -> u64 {
        self.clustered.len()
    }

    /// Pages of the clustered index (cost-model input).
    pub fn clustered_pages(&self) -> u64 {
        self.env.page_count(self.clustered.file_id()).unwrap_or(0)
    }

    /// Pages of the label index.
    pub fn label_index_pages(&self) -> u64 {
        self.env.page_count(self.label_idx.file_id()).unwrap_or(0)
    }

    /// Pages of the parent index.
    pub fn parent_index_pages(&self) -> u64 {
        self.env.page_count(self.parent_idx.file_id()).unwrap_or(0)
    }

    /// Pages of the text-value index.
    pub fn text_index_pages(&self) -> u64 {
        self.env.page_count(self.text_idx.file_id()).unwrap_or(0)
    }

    /// The root tuple (`in` = 1 in the XASR encoding, as the paper notes).
    pub fn root(&self) -> Result<NodeTuple> {
        self.get(1)?
            .ok_or_else(|| Error::Corrupt("document has no root tuple".into()))
    }

    /// Point lookup by `in` value.
    pub fn get(&self, in_: u64) -> Result<Option<NodeTuple>> {
        match self.clustered.get(&NodeTuple::clustered_key_bytes(in_))? {
            Some(bytes) => Ok(Some(NodeTuple::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Full clustered scan in document order.
    pub fn scan_all(&self) -> impl Iterator<Item = Result<NodeTuple>> + '_ {
        self.clustered.iter().map(|r| {
            let (_, v) = r?;
            NodeTuple::decode(&v)
        })
    }

    /// Clustered range scan over `in ∈ (lo, hi)` exclusive — with
    /// `lo = x.in`, `hi = x.out` this is exactly the descendant axis of `x`,
    /// in document order.
    pub fn scan_in_range(
        &self,
        lo_exclusive: u64,
        hi_exclusive: u64,
    ) -> impl Iterator<Item = Result<NodeTuple>> + '_ {
        let lo = NodeTuple::clustered_key(lo_exclusive);
        let hi = NodeTuple::clustered_key(hi_exclusive);
        self.clustered
            .range(Bound::Excluded(&lo), Bound::Excluded(&hi))
            .map(|r| {
                let (_, v) = r?;
                NodeTuple::decode(&v)
            })
    }

    /// All children of the node with `in = parent_in`, in document order
    /// (covering parent-index scan).
    pub fn children(&self, parent_in: u64) -> impl Iterator<Item = Result<NodeTuple>> + '_ {
        self.parent_idx
            .prefix(&NodeTuple::parent_prefix(parent_in))
            .map(|r| {
                let (k, v) = r?;
                NodeTuple::from_parent_entry(&k, &v)
            })
    }

    /// All elements with `label`, in document order (covering label-index
    /// scan).
    pub fn by_label(&self, label: &str) -> impl Iterator<Item = Result<NodeTuple>> + '_ {
        self.label_idx
            .prefix(&NodeTuple::label_prefix(label))
            .map(|r| {
                let (k, v) = r?;
                NodeTuple::from_label_entry(&k, &v)
            })
    }

    /// Elements with `label` and `in ∈ (lo, hi)` exclusive — the descendant
    /// axis with a label test, as a single covering index range scan.
    pub fn by_label_in_range(
        &self,
        label: &str,
        lo_exclusive: u64,
        hi_exclusive: u64,
    ) -> impl Iterator<Item = Result<NodeTuple>> + '_ {
        let lo = NodeTuple::label_key(label, lo_exclusive);
        let hi = NodeTuple::label_key(label, hi_exclusive);
        self.label_idx
            .range(Bound::Excluded(&lo), Bound::Excluded(&hi))
            .map(|r| {
                let (k, v) = r?;
                NodeTuple::from_label_entry(&k, &v)
            })
    }

    /// All text nodes whose content equals `text` exactly, in document
    /// order (text-value index prefix scan; full equality is verified
    /// against the stored content because keys carry only a bounded
    /// prefix).
    pub fn by_text(&self, text: &str) -> impl Iterator<Item = Result<NodeTuple>> + '_ {
        let needle = text.to_string();
        self.text_idx
            .prefix(&NodeTuple::text_prefix(text))
            .filter_map(move |r| match r {
                Ok((k, v)) => NodeTuple::from_text_entry_eq(&k, &v, &needle).map(Ok),
                Err(e) => Some(Err(e.into())),
            })
    }

    // --- batched access (for volcano operators) --------------------------------
    //
    // Physical operators cannot hold borrowing iterators across
    // `next_batch()` calls, so they pull bounded runs and remember a resume
    // key — which is also faithful block-based reading: one batch ≈ one
    // leaf page's worth of tuples. Every run is a zero-copy visitor scan
    // through the caller's seeker: tuples decode straight off the pinned
    // leaf, and runs read in key order cost a leaf-local seek each.

    /// Appends up to `limit` text nodes with content exactly `text` and
    /// `in > lower_excl` to `out`; returns how many. Each entry's content
    /// is compared in place; only matches are decoded.
    pub fn text_batch(
        &self,
        text: &str,
        lower_excl: Option<u64>,
        limit: usize,
        seeker: &mut Seeker,
        out: &mut Vec<NodeTuple>,
    ) -> Result<usize> {
        let prefix = NodeTuple::text_key_prefix(text);
        let lo = NodeTuple::text_key(prefix, lower_excl.unwrap_or(0));
        let hi = NodeTuple::text_key(prefix, u64::MAX);
        let range = (Bound::Excluded(&lo[..]), Bound::Included(&hi[..]));
        scan_into(&self.text_idx, seeker, range, limit, out, |k, v| {
            Ok(NodeTuple::from_text_entry_eq(k, v, text))
        })
    }

    /// Appends up to `limit` tuples of the clustered index with
    /// `lower_excl < in < upper_excl` (`None` bounds are open) to `out`.
    /// Returns how many.
    pub fn clustered_range_into(
        &self,
        lower_excl: Option<u64>,
        upper_excl: Option<u64>,
        limit: usize,
        seeker: &mut Seeker,
        out: &mut Vec<NodeTuple>,
    ) -> Result<usize> {
        fn bound(key: &Option<[u8; 8]>) -> Bound<&[u8]> {
            key.as_ref()
                .map_or(Bound::Unbounded, |k| Bound::Excluded(k))
        }
        let lo = lower_excl.map(NodeTuple::clustered_key_bytes);
        let hi = upper_excl.map(NodeTuple::clustered_key_bytes);
        let range = (bound(&lo), bound(&hi));
        scan_into(&self.clustered, seeker, range, limit, out, |_, v| {
            NodeTuple::decode(v).map(Some)
        })
    }

    /// Appends up to `limit` elements labeled `label` with
    /// `lower_excl < in < upper_excl` to `out`, like
    /// [`Self::clustered_range_into`].
    pub fn label_range_into(
        &self,
        label: &str,
        lower_excl: Option<u64>,
        upper_excl: Option<u64>,
        limit: usize,
        seeker: &mut Seeker,
        out: &mut Vec<NodeTuple>,
    ) -> Result<usize> {
        let lo = NodeTuple::label_key(label, lower_excl.unwrap_or(0));
        let hi = NodeTuple::label_key(label, upper_excl.unwrap_or(u64::MAX));
        let hi_bound = match upper_excl {
            Some(_) => Bound::Excluded(&hi[..]),
            None => Bound::Included(&hi[..]),
        };
        let range = (Bound::Excluded(&lo[..]), hi_bound);
        scan_into(&self.label_idx, seeker, range, limit, out, |k, v| {
            NodeTuple::from_label_entry(k, v).map(Some)
        })
    }

    /// Appends up to `limit` children of `parent_in` with
    /// `in > lower_excl` to `out`; returns how many.
    pub fn parent_batch(
        &self,
        parent_in: u64,
        lower_excl: Option<u64>,
        limit: usize,
        seeker: &mut Seeker,
        out: &mut Vec<NodeTuple>,
    ) -> Result<usize> {
        let lo = NodeTuple::parent_key(parent_in, lower_excl.unwrap_or(0));
        let hi = NodeTuple::parent_key(parent_in, u64::MAX);
        let range = (Bound::Excluded(&lo[..]), Bound::Included(&hi[..]));
        scan_into(&self.parent_idx, seeker, range, limit, out, |k, v| {
            NodeTuple::from_parent_entry(k, v).map(Some)
        })
    }

    /// Reconstructs the subtree rooted at `in_` as a DOM fragment —
    /// "obviously, XML documents stored using this schema can be
    /// reconstructed". Milestone 1 loads the whole document through it, and
    /// tests hold [`Self::write_subtree`] against it.
    pub fn reconstruct(&self, in_: u64) -> Result<Document> {
        let root_tuple = self
            .get(in_)?
            .ok_or_else(|| Error::Corrupt(format!("no node with in={in_}")))?;
        let mut doc = Document::new();
        let doc_root = doc.root();
        // Map from tuple.in to the node id of its copy.
        let mut ids: std::collections::HashMap<u64, xmldb_xml::NodeId> =
            std::collections::HashMap::new();
        ids.insert(root_tuple.parent_in, doc_root);

        let attach = |doc: &mut Document,
                      ids: &mut std::collections::HashMap<u64, xmldb_xml::NodeId>,
                      tuple: &NodeTuple|
         -> Result<()> {
            let parent = ids.get(&tuple.parent_in).copied().ok_or_else(|| {
                Error::Corrupt(format!("orphan tuple {tuple} during reconstruction"))
            })?;
            match tuple.kind {
                NodeType::Element => {
                    let id = doc.add_element(parent, tuple.value.clone().unwrap_or_default());
                    ids.insert(tuple.in_, id);
                }
                NodeType::Text => {
                    doc.add_text(parent, tuple.value.as_deref().unwrap_or(""));
                }
                NodeType::Root => {
                    ids.insert(tuple.in_, parent);
                }
            }
            Ok(())
        };

        if root_tuple.kind == NodeType::Root {
            // Whole document: children of the virtual root.
            ids.insert(root_tuple.in_, doc_root);
        } else {
            attach(&mut doc, &mut ids, &root_tuple)?;
        }
        for tuple in self.scan_in_range(root_tuple.in_, root_tuple.out) {
            attach(&mut doc, &mut ids, &tuple?)?;
        }
        Ok(doc)
    }

    /// Writes the stored subtree of `tuple` to `out` — a root tuple writes
    /// its children only — producing the bytes and item count that
    /// serializing [`Self::reconstruct`]'s fragment would.
    ///
    /// The subtree is the clustered range `[in, out)`, so this is one
    /// zero-copy range scan in document order: no DOM, no map from `in` to
    /// node, no per-node allocation. A stack of the open elements' `out`
    /// values says when to close them: an element ends before the first
    /// tuple whose `in` exceeds its `out`. A text tuple needs no read at
    /// all, and neither does an element without descendants. The scan
    /// goes through `seeker`, so subtrees written in document order with
    /// one seeker cost a leaf-local seek each, not a descent.
    pub fn write_subtree(
        &self,
        tuple: &NodeTuple,
        seeker: &mut Seeker,
        out: &mut XmlWriter,
    ) -> Result<()> {
        let value = tuple.value.as_deref().unwrap_or("");
        match tuple.kind {
            NodeType::Text => {
                out.text(value);
                return Ok(());
            }
            NodeType::Element => out.open(value),
            NodeType::Root => {}
        }
        let mut open_outs: Vec<u64> = Vec::new();
        if tuple.out > tuple.in_ + 1 {
            let lo = NodeTuple::clustered_key_bytes(tuple.in_);
            let hi = NodeTuple::clustered_key_bytes(tuple.out);
            let mut failed = None;
            seeker.scan_range(
                &self.clustered,
                Bound::Excluded(&lo),
                Bound::Excluded(&hi),
                |_, v| {
                    let t = match TupleRef::decode(v) {
                        Ok(t) => t,
                        Err(e) => {
                            failed = Some(e);
                            return false;
                        }
                    };
                    while open_outs.last().is_some_and(|&o| o < t.in_) {
                        open_outs.pop();
                        out.close();
                    }
                    let value = t.value.unwrap_or("");
                    match t.kind {
                        NodeType::Element => {
                            out.open(value);
                            open_outs.push(t.out);
                        }
                        NodeType::Text => out.text(value),
                        // Only the document's first tuple is a root.
                        NodeType::Root => {}
                    }
                    true
                },
            )?;
            if let Some(e) = failed {
                return Err(e);
            }
        }
        for _ in open_outs {
            out.close();
        }
        if tuple.kind == NodeType::Element {
            out.close();
        }
        Ok(())
    }

    /// Serializes the subtree rooted at `in_` back to XML text.
    pub fn serialize_subtree(&self, in_: u64) -> Result<String> {
        let tuple = self
            .get(in_)?
            .ok_or_else(|| Error::Corrupt(format!("no node with in={in_}")))?;
        let mut out = XmlWriter::new();
        self.write_subtree(&tuple, &mut Seeker::default(), &mut out)?;
        Ok(out.into_string())
    }
}

/// Appends to `out` the tuples `decode` makes of `tree`'s entries in
/// `range` (`None` skips an entry), until `limit` are appended: a visitor
/// scan through `seeker`. Returns how many.
fn scan_into(
    tree: &BTree,
    seeker: &mut Seeker,
    (lo, hi): (Bound<&[u8]>, Bound<&[u8]>),
    limit: usize,
    out: &mut Vec<NodeTuple>,
    decode: impl Fn(&[u8], &[u8]) -> Result<Option<NodeTuple>>,
) -> Result<usize> {
    let before = out.len();
    let mut failed = None;
    seeker.scan_range(tree, lo, hi, |k, v| match decode(k, v) {
        Ok(t) => {
            out.extend(t);
            out.len() - before < limit
        }
        Err(e) => {
            failed = Some(e);
            false
        }
    })?;
    failed.map_or(Ok(out.len() - before), Err)
}

impl std::fmt::Debug for XasrStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XasrStore")
            .field("name", &self.name)
            .field("nodes", &self.node_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred::shred_document;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    fn store() -> (Env, XasrStore) {
        let env = Env::memory();
        let s = shred_document(&env, "fig2", FIGURE2).unwrap();
        (env, s)
    }

    #[test]
    fn children_in_document_order() {
        let (_env, s) = store();
        // Children of authors (in=3): name (4) and name (8).
        let kids: Vec<NodeTuple> = s.children(3).map(|r| r.unwrap()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].in_, 4);
        assert_eq!(kids[1].in_, 8);
        assert_eq!(kids[0].label(), Some("name"));
    }

    #[test]
    fn by_label_in_document_order() {
        let (_env, s) = store();
        let names: Vec<u64> = s.by_label("name").map(|r| r.unwrap().in_).collect();
        assert_eq!(names, vec![4, 8]);
        assert_eq!(s.by_label("ghost").count(), 0);
    }

    #[test]
    fn descendant_interval_scan() {
        let (_env, s) = store();
        let journal = s.get(2).unwrap().unwrap();
        let descendants: Vec<u64> = s
            .scan_in_range(journal.in_, journal.out)
            .map(|r| r.unwrap().in_)
            .collect();
        assert_eq!(descendants, vec![3, 4, 5, 8, 9, 13, 14]);
    }

    #[test]
    fn label_in_range_is_descendant_with_test() {
        let (_env, s) = store();
        let journal = s.get(2).unwrap().unwrap();
        let names: Vec<u64> = s
            .by_label_in_range("name", journal.in_, journal.out)
            .map(|r| r.unwrap().in_)
            .collect();
        assert_eq!(names, vec![4, 8]);
        // Example 2's relfor binding sequence ($j, $n) = (2,4), (2,8).
        let bindings: Vec<(u64, u64)> = names.iter().map(|&n| (journal.in_, n)).collect();
        assert_eq!(bindings, vec![(2, 4), (2, 8)]);
    }

    #[test]
    fn reconstruct_subtree() {
        let (_env, s) = store();
        assert_eq!(
            s.serialize_subtree(3).unwrap(),
            "<authors><name>Ana</name><name>Bob</name></authors>"
        );
        assert_eq!(s.serialize_subtree(5).unwrap(), "Ana");
        assert_eq!(s.serialize_subtree(1).unwrap(), FIGURE2);
        assert_eq!(s.serialize_subtree(2).unwrap(), FIGURE2);
    }

    #[test]
    fn scan_all_in_document_order() {
        let (_env, s) = store();
        let ins: Vec<u64> = s.scan_all().map(|r| r.unwrap().in_).collect();
        assert_eq!(ins, vec![1, 2, 3, 4, 5, 8, 9, 13, 14]);
    }

    #[test]
    fn reopen_store() {
        let dir = std::env::temp_dir().join(format!("saardb-xasr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = Env::open_dir(&dir, Default::default()).unwrap();
            env.autocommit(|| shred_document(&env, "doc", FIGURE2))
                .unwrap();
        }
        {
            let env = Env::open_dir(&dir, Default::default()).unwrap();
            assert!(XasrStore::exists(&env, "doc"));
            let s = XasrStore::open(&env, "doc").unwrap();
            assert_eq!(s.node_count(), 9);
            assert_eq!(s.stats().label_count("name"), 2);
            assert_eq!(s.serialize_subtree(2).unwrap(), FIGURE2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_document_removes_files() {
        let env = Env::memory();
        shred_document(&env, "doc", FIGURE2).unwrap();
        assert!(XasrStore::exists(&env, "doc"));
        XasrStore::drop_document(&env, "doc").unwrap();
        assert!(!XasrStore::exists(&env, "doc"));
        // Can re-shred under the same name.
        shred_document(&env, "doc", "<x/>").unwrap();
    }

    #[test]
    fn override_stats_replaces() {
        let (_env, mut s) = store();
        let fake = Statistics {
            node_count: 1_000_000,
            ..Statistics::default()
        };
        s.override_stats(fake.clone());
        assert_eq!(s.stats().node_count, 1_000_000);
    }

    #[test]
    fn batched_access_resumes() {
        let (_env, s) = store();
        let mut seeker = Seeker::default();
        // Batch through the clustered index two at a time.
        let mut seen = Vec::new();
        while s
            .clustered_range_into(
                seen.last().map(|t: &NodeTuple| t.in_),
                None,
                2,
                &mut seeker,
                &mut seen,
            )
            .unwrap()
            > 0
        {}
        let ins = |tuples: &[NodeTuple]| tuples.iter().map(|t| t.in_).collect::<Vec<_>>();
        assert_eq!(ins(&seen), vec![1, 2, 3, 4, 5, 8, 9, 13, 14]);

        // Label batches with interval bounds (descendants of journal in=2,
        // out=17).
        let mut names = Vec::new();
        s.label_range_into("name", Some(2), Some(17), 10, &mut seeker, &mut names)
            .unwrap();
        assert_eq!(ins(&names), vec![4, 8]);
        let none = s
            .label_range_into("name", Some(4), Some(8), 10, &mut seeker, &mut names)
            .unwrap();
        assert_eq!(none, 0);

        // Parent batches resume too.
        let mut kids = Vec::new();
        assert_eq!(
            s.parent_batch(3, None, 1, &mut seeker, &mut kids).unwrap(),
            1
        );
        assert_eq!(
            s.parent_batch(3, Some(4), 1, &mut seeker, &mut kids)
                .unwrap(),
            1
        );
        assert_eq!(
            s.parent_batch(3, Some(8), 1, &mut seeker, &mut kids)
                .unwrap(),
            0
        );
        assert_eq!(ins(&kids), vec![4, 8]);
    }

    #[test]
    fn by_text_exact_matches() {
        let env = Env::memory();
        let s = shred_document(
            &env,
            "t",
            "<r><a>Ana</a><b>Ana</b><c>Anastasia</c><d>Bob</d></r>",
        )
        .unwrap();
        let hits: Vec<u64> = s.by_text("Ana").map(|r| r.unwrap().in_).collect();
        assert_eq!(
            hits.len(),
            2,
            "prefix matches must be filtered to exact equality"
        );
        assert!(s.by_text("Anast").next().is_none());
        assert_eq!(s.by_text("Bob").count(), 1);
        assert_eq!(s.by_text("Zoe").count(), 0);
        assert_eq!(s.stats().distinct_text_values, 3);
    }

    #[test]
    fn text_batch_resumes_and_verifies() {
        let env = Env::memory();
        let s = shred_document(&env, "tb", "<r><a>x</a><b>x</b><c>x</c><d>y</d></r>").unwrap();
        let mut seeker = Seeker::default();
        let batch = |s: &XasrStore, text: &str, lower, limit, seeker: &mut Seeker| {
            let mut out = Vec::new();
            s.text_batch(text, lower, limit, seeker, &mut out).unwrap();
            out
        };
        let first = batch(&s, "x", None, 2, &mut seeker);
        assert_eq!(first.len(), 2);
        let rest = batch(&s, "x", Some(first.last().unwrap().in_), 10, &mut seeker);
        assert_eq!(rest.len(), 1);
        assert!(batch(&s, "x", Some(rest[0].in_), 10, &mut seeker).is_empty());
        // Long values sharing a 48-byte prefix are distinguished.
        let long_a = format!("{}{}", "p".repeat(60), "AAA");
        let long_b = format!("{}{}", "p".repeat(60), "BBB");
        let xml = format!("<r><a>{long_a}</a><b>{long_b}</b></r>");
        let s2 = shred_document(&env, "tl", &xml).unwrap();
        assert_eq!(batch(&s2, &long_a, None, 10, &mut seeker).len(), 1);
        assert_eq!(batch(&s2, &long_b, None, 10, &mut seeker).len(), 1);
        assert_eq!(s2.by_text(&long_a).count(), 1);
    }

    #[test]
    fn get_missing_in_value() {
        let (_env, s) = store();
        assert!(s.get(6).unwrap().is_none()); // 6 is an out value
        assert!(s.get(999).unwrap().is_none());
    }
}
