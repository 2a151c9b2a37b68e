//! Streaming shredder: XML events → XASR tuples → bulk-loaded indexes.
//!
//! Milestone 2 explicitly "does not require building the DOM tree of the
//! input XML document". The shredder keeps only the open-element stack in
//! memory: a tuple is complete when its closing tag arrives, is pushed into
//! three external sorters (one per index key order), and the sorted streams
//! are bulk-loaded into the B+-trees. Memory use is O(depth + sort budget)
//! regardless of document size.

use crate::stats::Statistics;
use crate::store::{file_names, XasrStore};
use crate::tuple::{NodeTuple, NodeType};
use crate::Result;
use xmldb_storage::{BTree, Env, ExternalSorter};
use xmldb_xml::{Event, EventReader, ParseOptions};

/// Sort-buffer budget per index during shredding.
const SORT_BUDGET: usize = 4 << 20;

/// Shreds `xml` into the three XASR indexes under document name `name` and
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
    let mut clustered_sorter = key_sorter(env);
    let mut label_sorter = key_sorter(env);
    let mut parent_sorter = key_sorter(env);
    let mut text_sorter = key_sorter(env);
    let mut stats = Statistics::default();

    // Tag counter and open-element stack. Stack entries are (in, parent_in).
    let mut counter = 0u64;
    let mut stack: Vec<(u64, u64)> = Vec::new();

    // The virtual root opens before everything.
    counter += 1;
    let root_in = counter;
    stack.push((root_in, 0));
    stats.record_node(0);

    let push_tuple = |tuple: NodeTuple,
                      clustered: &mut ExternalSorter,
                      label: &mut ExternalSorter,
                      parent: &mut ExternalSorter,
                      text: &mut ExternalSorter|
     -> Result<()> {
        clustered.push(kv_record(
            &NodeTuple::clustered_key(tuple.in_),
            &tuple.encode(),
        ))?;
        if let Some(l) = tuple.label() {
            label.push(kv_record(
                &NodeTuple::label_key(l, tuple.in_),
                &tuple.label_value(),
            ))?;
        }
        if let Some(t) = tuple.text() {
            text.push(kv_record(
                &NodeTuple::text_key(t, tuple.in_),
                &tuple.text_value_entry(),
            ))?;
        }
        parent.push(kv_record(
            &NodeTuple::parent_key(tuple.parent_in, tuple.in_),
            &tuple.parent_value(),
        ))?;
        Ok(())
    };

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
                let tuple = NodeTuple {
                    in_,
                    out: counter,
                    parent_in,
                    kind: NodeType::Element,
                    value: Some(label),
                };
                push_tuple(
                    tuple,
                    &mut clustered_sorter,
                    &mut label_sorter,
                    &mut parent_sorter,
                    &mut text_sorter,
                )?;
            }
            Event::Text(text) => {
                counter += 1;
                let in_ = counter;
                counter += 1;
                let parent_in = stack.last().expect("root always open").0;
                stats.record_text(&text, stack.len() as u32);
                let tuple = NodeTuple {
                    in_,
                    out: counter,
                    parent_in,
                    kind: NodeType::Text,
                    value: Some(text),
                };
                push_tuple(
                    tuple,
                    &mut clustered_sorter,
                    &mut label_sorter,
                    &mut parent_sorter,
                    &mut text_sorter,
                )?;
            }
            Event::Comment(_) | Event::Pi { .. } => {
                // Not representable in the XASR data model; counted nowhere.
            }
        }
    }
    // Close the virtual root.
    let (root_in, _) = stack.pop().expect("root still open");
    counter += 1;
    let root_tuple = NodeTuple {
        in_: root_in,
        out: counter,
        parent_in: 0,
        kind: NodeType::Root,
        value: None,
    };
    push_tuple(
        root_tuple,
        &mut clustered_sorter,
        &mut label_sorter,
        &mut parent_sorter,
        &mut text_sorter,
    )?;

    // Bulk-build each index from its sorted stream.
    let build = |name: &str, records| BTree::build_in(env, env.create_file(name)?, records);
    let clustered = build(
        &names.clustered,
        SplitRecords::new(clustered_sorter.finish()?),
    )?;
    let label_idx = build(&names.label, SplitRecords::new(label_sorter.finish()?))?;
    let parent_idx = build(&names.parent, SplitRecords::new(parent_sorter.finish()?))?;
    // The text index loads through a distinct-prefix counter: the stream is
    // sorted by (value-prefix, in), so distinct values are adjacent runs.
    let mut distinct = DistinctPrefixCounter::default();
    let text_idx = BTree::build_in(
        env,
        env.create_file(&names.text)?,
        SplitRecords::new(text_sorter.finish()?).inspect(|(k, _)| distinct.observe(k)),
    )?;
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

/// Counts distinct NUL-terminated key prefixes in a sorted key stream.
#[derive(Default)]
struct DistinctPrefixCounter {
    last: Option<Vec<u8>>,
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
        if self.last.as_deref() != Some(prefix) {
            self.count += 1;
            self.last = Some(prefix.to_vec());
        }
    }
}

/// Sorter record layout: `u32 key_len | key | value`, compared by key.
fn kv_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + key.len() + value.len());
    rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(value);
    rec
}

fn kv_key(rec: &[u8]) -> &[u8] {
    let key_len = u32::from_le_bytes(rec[..4].try_into().unwrap()) as usize;
    &rec[4..4 + key_len]
}

fn kv_split(rec: Vec<u8>) -> (Vec<u8>, Vec<u8>) {
    let key_len = u32::from_le_bytes(rec[..4].try_into().unwrap()) as usize;
    let key = rec[4..4 + key_len].to_vec();
    let value = rec[4 + key_len..].to_vec();
    (key, value)
}

fn key_sorter(env: &Env) -> ExternalSorter {
    ExternalSorter::new(env, SORT_BUDGET, |a, b| kv_key(a).cmp(kv_key(b)))
}

/// Adapts sorted key/value records into `(key, value)` pairs for bulk
/// loading.
struct SplitRecords<I> {
    inner: I,
}

impl<I> SplitRecords<I> {
    fn new(inner: I) -> Self {
        SplitRecords { inner }
    }
}

impl<I: Iterator<Item = xmldb_storage::Result<Vec<u8>>>> Iterator for SplitRecords<I> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        let rec = self
            .inner
            .next()?
            .expect("sort spill I/O failed during shred");
        Some(kv_split(rec))
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
