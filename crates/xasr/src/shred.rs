//! Streaming shredder: XML events → XASR tuples → bulk-loaded indexes.
//!
//! Milestone 2 explicitly "does not require building the DOM tree of the
//! input XML document". The shredder keeps only the open-element stack in
//! memory: a tuple is complete when its closing tag arrives, and its
//! entries go to four external sorters, one per index (clustered, label,
//! parent, text), encoded straight into each sorter's arena through one
//! reused buffer. The sorted streams are bulk-loaded into the B+-trees,
//! borrowed record by record. Memory is O(depth) for the stack plus, per
//! index, at most [`SORT_BUDGET`] of buffered records (less under a
//! governor's budget, which makes the sorters spill early), one page per
//! spilled run during its merge, and the first key of each leaf the
//! builder closed — regardless of document size.

use crate::stats::Statistics;
use crate::store::{file_names, XasrStore};
use crate::tuple::{NodeTuple, NodeType, TupleRef};
use crate::Result;
use xmldb_storage::{BTree, Env, ExternalSorter, StorageError};
use xmldb_xml::{Event, EventReader, ParseOptions};

/// Sort-buffer budget per index during shredding.
const SORT_BUDGET: usize = 4 << 20;

/// Shreds `xml` into the four XASR indexes under document name `name` and
/// returns the opened store. The document's files are new and not yet
/// committed: the caller commits them ([`Env::flush`] outside a
/// transaction, [`xmldb_storage::Txn::commit`] inside one).
///
/// ```
/// use xmldb_storage::Env;
/// let env = Env::memory();
/// let store = xmldb_xasr::shred_document(&env, "doc", "<a><b>x</b></a>").unwrap();
/// assert_eq!(store.stats().element_count, 2);
/// ```
pub fn shred_document(env: &Env, name: &str, xml: &str) -> Result<XasrStore> {
    shred_document_with(env, name, xml, &ParseOptions::default())
}

/// [`shred_document`] with explicit parse options (e.g. whitespace
/// preservation for TREEBANK-like data).
pub fn shred_document_with(
    env: &Env,
    name: &str,
    xml: &str,
    options: &ParseOptions,
) -> Result<XasrStore> {
    let names = file_names(name);
    // Text-index keys need the bounded value prefix plus terminator and
    // `in`; tiny page sizes cannot hold them.
    let needed = NodeTuple::TEXT_KEY_PREFIX + 9;
    if env.page_size() / 8 < needed {
        return Err(crate::Error::Corrupt(format!(
            "page size {} too small for text-index keys (need ≥ {} bytes)",
            env.page_size(),
            needed * 8
        )));
    }
    let mut sorters = Sorters {
        indexes: [(); 4].map(|()| {
            ExternalSorter::new(env, SORT_BUDGET, |a, b| kv_split(a).0.cmp(kv_split(b).0))
        }),
        buf: Vec::new(),
    };
    let mut stats = Statistics::default();

    // Tag counter and open-element stack. Stack entries are (in, parent_in).
    let mut counter = 0u64;
    let mut stack: Vec<(u64, u64)> = Vec::new();

    // The virtual root opens before everything.
    counter += 1;
    let root_in = counter;
    stack.push((root_in, 0));
    stats.record_node(0);

    let mut reader = EventReader::new(xml, options.clone());
    // Element stack entries carry the label for tuple completion.
    let mut labels: Vec<String> = Vec::new();
    while let Some(event) = reader.next_event()? {
        match event {
            Event::StartElement { name: label, .. } => {
                counter += 1;
                let parent_in = stack.last().expect("root always open").0;
                stats.record_element(&label, stack.len() as u32);
                stack.push((counter, parent_in));
                labels.push(label);
            }
            Event::EndElement { .. } => {
                let (in_, parent_in) = stack.pop().expect("balanced tags");
                let label = labels.pop().expect("balanced tags");
                counter += 1;
                sorters.push(TupleRef {
                    in_,
                    out: counter,
                    parent_in,
                    kind: NodeType::Element,
                    value: Some(&label),
                })?;
            }
            Event::Text(text) => {
                counter += 1;
                let in_ = counter;
                counter += 1;
                let parent_in = stack.last().expect("root always open").0;
                stats.record_text(&text, stack.len() as u32);
                sorters.push(TupleRef {
                    in_,
                    out: counter,
                    parent_in,
                    kind: NodeType::Text,
                    value: Some(&text),
                })?;
            }
            Event::Comment(_) | Event::Pi { .. } => {
                // Not representable in the XASR data model; counted nowhere.
            }
        }
    }
    // Close the virtual root.
    let (root_in, _) = stack.pop().expect("root still open");
    counter += 1;
    sorters.push(TupleRef {
        in_: root_in,
        out: counter,
        parent_in: 0,
        kind: NodeType::Root,
        value: None,
    })?;

    // Bulk-build each index from its sorted stream. The text index counts
    // distinct prefixes on the way: its stream is sorted by (value-prefix,
    // in), so distinct values are adjacent runs.
    let mut distinct = DistinctPrefixCounter::default();
    let [clustered, label, parent, text] = sorters.indexes;
    let clustered = load(env, &names.clustered, clustered, |_| {})?;
    let label_idx = load(env, &names.label, label, |_| {})?;
    let parent_idx = load(env, &names.parent, parent, |_| {})?;
    let text_idx = load(env, &names.text, text, |key| distinct.observe(key))?;
    stats.distinct_text_values = distinct.count;

    stats.save(env, &names.stats)?;
    XasrStore::from_parts(
        env.clone(),
        name.to_string(),
        clustered,
        label_idx,
        parent_idx,
        text_idx,
        stats,
    )
}

/// The index sorters of one load — clustered, label, parent and text —
/// and the buffer every entry is encoded in before it is copied into its
/// sorter, as a `u32 key_len | key | value` record.
struct Sorters {
    indexes: [ExternalSorter; 4],
    buf: Vec<u8>,
}

impl Sorters {
    /// Pushes a node's entries: clustered and parent for every node, label
    /// for an element, text for a text node.
    fn push(&mut self, t: TupleRef<'_>) -> Result<()> {
        let buf = &mut self.buf;
        for index in 0..4 {
            buf.clear();
            buf.extend_from_slice(&[0; 4]);
            match (index, t.kind, t.value) {
                (0, ..) => buf.extend_from_slice(&NodeTuple::clustered_key_bytes(t.in_)),
                (1, NodeType::Element, Some(l)) => NodeTuple::put_label_key(buf, l, t.in_),
                (2, ..) => NodeTuple::put_parent_key(buf, t.parent_in, t.in_),
                (3, NodeType::Text, Some(text)) => NodeTuple::put_text_key(buf, text, t.in_),
                _ => continue,
            }
            let key_len = (buf.len() - 4) as u32;
            buf[..4].copy_from_slice(&key_len.to_le_bytes());
            match index {
                0 => t.encode_into(buf),
                1 => t.put_label_value(buf),
                2 => t.put_parent_value(buf),
                _ => t.put_text_value(buf),
            }
            // Governor pressure spills only the refused sorter; the others
            // may hold the budget, so they spill too before the one retry.
            match self.indexes[index].push(buf) {
                Err(StorageError::MemoryExceeded { .. }) => {
                    for sorter in &mut self.indexes {
                        sorter.spill()?;
                    }
                    self.indexes[index].push(buf)?;
                }
                pushed => pushed?,
            }
        }
        Ok(())
    }
}

/// Bulk-loads the new file `name` from a sorter's records, handing each
/// key to `observe` first.
fn load(
    env: &Env,
    name: &str,
    sorter: ExternalSorter,
    mut observe: impl FnMut(&[u8]),
) -> Result<BTree> {
    let mut sorted = sorter.finish()?;
    let mut tree = BTree::builder(env, env.create_file(name)?)?;
    while let Some(record) = sorted.next_record()? {
        let (key, value) = kv_split(record);
        observe(key);
        tree.push(key, value)?;
    }
    Ok(tree.finish()?)
}

/// Splits a `u32 key_len | key | value` sorter record.
fn kv_split(record: &[u8]) -> (&[u8], &[u8]) {
    let key_len = u32::from_le_bytes(record[..4].try_into().expect("a 4-byte length")) as usize;
    record[4..].split_at(key_len)
}

/// Counts distinct NUL-terminated key prefixes in a sorted key stream.
#[derive(Default)]
struct DistinctPrefixCounter {
    last: Vec<u8>,
    count: u64,
}

impl DistinctPrefixCounter {
    fn observe(&mut self, key: &[u8]) {
        let prefix_end = key
            .iter()
            .position(|&b| b == 0)
            .map(|p| p + 1)
            .unwrap_or(key.len());
        let prefix = &key[..prefix_end];
        if self.count == 0 || self.last != prefix {
            self.count += 1;
            self.last.clear();
            self.last.extend_from_slice(prefix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    #[test]
    fn figure2_tuples_match_paper() {
        let env = Env::memory();
        let store = shred_document(&env, "fig2", FIGURE2).unwrap();
        // Example 1: journal and Ana.
        let journal = store.get(2).unwrap().unwrap();
        assert_eq!(journal.to_string(), "(2, 17, 1, element, journal)");
        let ana = store.get(5).unwrap().unwrap();
        assert_eq!(ana.to_string(), "(5, 6, 4, text, Ana)");
        // Root.
        let root = store.get(1).unwrap().unwrap();
        assert_eq!(root.kind, NodeType::Root);
        assert_eq!(root.out, 18);
        assert_eq!(root.parent_in, 0);
        assert_eq!(store.node_count(), 9);
    }

    #[test]
    fn stats_collected() {
        let env = Env::memory();
        let store = shred_document(&env, "fig2", FIGURE2).unwrap();
        let stats = store.stats();
        assert_eq!(stats.node_count, 9);
        assert_eq!(stats.element_count, 5);
        assert_eq!(stats.text_count, 3);
        assert_eq!(stats.label_count("name"), 2);
        assert_eq!(stats.label_count("journal"), 1);
        assert_eq!(stats.text_bytes, 8); // Ana + Bob + DB
        assert_eq!(stats.max_depth, 4);
    }

    #[test]
    fn shred_agrees_with_dom_labeling() {
        // The streaming shredder must assign exactly the labels the DOM
        // labeling computes.
        let env = Env::memory();
        let docs = [
            FIGURE2,
            "<a/>",
            "<a><b/><c><d>x</d></c>y</a>",
            "<r><x><x><x>deep</x></x></x></r>",
        ];
        for (i, xml) in docs.iter().enumerate() {
            let store = shred_document(&env, &format!("doc{i}"), xml).unwrap();
            let dom = xmldb_xml::parse(xml).unwrap();
            let labeling = xmldb_xml::Labeling::compute(&dom);
            for (in_val, node) in labeling.iter() {
                let tuple = store.get(in_val).unwrap().unwrap_or_else(|| {
                    panic!("doc {i}: missing tuple for in={in_val}");
                });
                assert_eq!(tuple.out, labeling.out_of(node));
                assert_eq!(tuple.parent_in, labeling.parent_in_of(&dom, node));
                match dom.kind(node) {
                    xmldb_xml::NodeKind::Root => assert_eq!(tuple.kind, NodeType::Root),
                    xmldb_xml::NodeKind::Element => {
                        assert_eq!(tuple.kind, NodeType::Element);
                        assert_eq!(tuple.value.as_deref(), Some(dom.name(node)));
                    }
                    xmldb_xml::NodeKind::Text => {
                        assert_eq!(tuple.kind, NodeType::Text);
                        assert_eq!(tuple.value.as_deref(), Some(dom.value(node)));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_elements_and_whitespace() {
        let env = Env::memory();
        let store = shred_document(&env, "w", "<a>\n  <b/>\n</a>").unwrap();
        // Whitespace text dropped by default options.
        assert_eq!(store.stats().text_count, 0);
        assert_eq!(store.node_count(), 3); // root, a, b
    }
}
