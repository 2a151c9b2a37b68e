//! Property tests: shredding any generated document must agree with the DOM
//! on structure, axes, and round-trip serialization.

use proptest::prelude::*;
use xmldb_storage::{Env, EnvConfig, Seeker};
use xmldb_xasr::{shred_document, NodeTuple, NodeType};
use xmldb_xml::{NodeKind, XmlWriter};

#[derive(Debug, Clone)]
enum Tree {
    Element(String, Vec<Tree>),
    Text(String),
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        "[a-z]{1,8}".prop_map(Tree::Text),
        "[a-d]{1,3}".prop_map(|n| Tree::Element(n, vec![])),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        ("[a-d]{1,3}", prop::collection::vec(inner, 0..4))
            .prop_map(|(n, kids)| Tree::Element(n, kids))
    })
}

fn root_strategy() -> impl Strategy<Value = Tree> {
    ("[a-d]{1,3}", prop::collection::vec(tree_strategy(), 0..4))
        .prop_map(|(n, kids)| Tree::Element(n, kids))
}

/// Text that needs escaping, empty elements, and nesting deep enough that
/// one subtree spans several leaves of a small-page clustered tree.
fn escaped_deep_strategy() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        "[a-c&<> ]{1,6}".prop_map(Tree::Text),
        "[a-d]{1,3}".prop_map(|n| Tree::Element(n, vec![])),
    ];
    let tree = leaf.prop_recursive(10, 96, 3, |inner| {
        ("[a-d]{1,3}", prop::collection::vec(inner, 0..3))
            .prop_map(|(n, kids)| Tree::Element(n, kids))
    });
    ("[a-d]{1,3}", prop::collection::vec(tree, 0..4)).prop_map(|(n, kids)| Tree::Element(n, kids))
}

fn to_xml(tree: &Tree, out: &mut String) {
    match tree {
        Tree::Text(t) => out.push_str(&xmldb_xml::escape::escape_text(t)),
        Tree::Element(name, kids) => {
            out.push('<');
            out.push_str(name);
            if kids.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for k in kids {
                    to_xml(k, out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
    }
}

fn small_env() -> Env {
    Env::memory_with(EnvConfig {
        page_size: 512,
        pool_bytes: 32 * 512,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shredded tuples agree with the DOM labeling on every field.
    #[test]
    fn shred_matches_dom(tree in root_strategy()) {
        let mut xml = String::new();
        to_xml(&tree, &mut xml);
        let env = small_env();
        let store = shred_document(&env, "d", &xml).unwrap();
        let dom = xmldb_xml::parse(&xml).unwrap();
        let labeling = xmldb_xml::Labeling::compute(&dom);
        prop_assert_eq!(store.node_count() as usize, dom.len());
        for (in_val, node) in labeling.iter() {
            let tuple = store.get(in_val).unwrap().expect("tuple exists");
            prop_assert_eq!(tuple.out, labeling.out_of(node));
            prop_assert_eq!(tuple.parent_in, labeling.parent_in_of(&dom, node));
            let kind_matches = matches!(
                (tuple.kind, dom.kind(node)),
                (NodeType::Root, NodeKind::Root)
                    | (NodeType::Element, NodeKind::Element)
                    | (NodeType::Text, NodeKind::Text)
            );
            prop_assert!(kind_matches);
        }
    }

    /// Reconstruction from XASR reproduces the original serialization.
    #[test]
    fn reconstruct_roundtrip(tree in root_strategy()) {
        let mut xml = String::new();
        to_xml(&tree, &mut xml);
        let env = small_env();
        let store = shred_document(&env, "d", &xml).unwrap();
        let dom = xmldb_xml::parse(&xml).unwrap();
        let canonical = xmldb_xml::serialize_document(&dom);
        prop_assert_eq!(store.serialize_subtree(1).unwrap(), canonical);
    }

    /// The range-scan writer produces exactly what serializing the
    /// reconstructed fragment produces, for every node: bytes and item
    /// count.
    #[test]
    fn write_subtree_matches_reconstruct(tree in escaped_deep_strategy()) {
        let mut xml = String::new();
        to_xml(&tree, &mut xml);
        let env = small_env();
        let store = shred_document(&env, "d", &xml).unwrap();
        // One seeker writes every subtree, in document order.
        let mut seeker = Seeker::default();
        for tuple in store.scan_all() {
            let tuple = tuple.unwrap();
            let fragment = store.reconstruct(tuple.in_).unwrap();
            let mut out = XmlWriter::new();
            store.write_subtree(&tuple, &mut seeker, &mut out).unwrap();
            prop_assert_eq!(out.items(), fragment.children(fragment.root()).len());
            prop_assert_eq!(out.into_string(), xmldb_xml::serialize_document(&fragment));
        }
    }

    /// Axis accessors agree with brute-force filtering of the full relation.
    #[test]
    fn axes_match_bruteforce(tree in root_strategy()) {
        let mut xml = String::new();
        to_xml(&tree, &mut xml);
        let env = small_env();
        let store = shred_document(&env, "d", &xml).unwrap();
        let all: Vec<NodeTuple> = store.scan_all().map(|r| r.unwrap()).collect();
        for x in &all {
            let children: Vec<u64> =
                store.children(x.in_).map(|r| r.unwrap().in_).collect();
            let expected: Vec<u64> = all
                .iter()
                .filter(|y| xmldb_xasr::predicates::is_child(x, y))
                .map(|y| y.in_)
                .collect();
            prop_assert_eq!(children, expected);

            let descendants: Vec<u64> =
                store.scan_in_range(x.in_, x.out).map(|r| r.unwrap().in_).collect();
            let expected: Vec<u64> = all
                .iter()
                .filter(|y| xmldb_xasr::predicates::is_descendant(x, y))
                .map(|y| y.in_)
                .collect();
            prop_assert_eq!(descendants, expected);
        }
        // Text index agrees per distinct text value.
        let texts: std::collections::BTreeSet<String> =
            all.iter().filter_map(|t| t.text().map(String::from)).collect();
        for text in texts {
            let by_index: Vec<u64> =
                store.by_text(&text).map(|r| r.unwrap().in_).collect();
            let expected: Vec<u64> = all
                .iter()
                .filter(|t| t.text() == Some(text.as_str()))
                .map(|t| t.in_)
                .collect();
            prop_assert_eq!(by_index, expected, "text index wrong for {:?}", text);
        }
        // Label index agrees per label.
        let labels: std::collections::BTreeSet<String> =
            all.iter().filter_map(|t| t.label().map(String::from)).collect();
        for label in labels {
            let by_index: Vec<u64> =
                store.by_label(&label).map(|r| r.unwrap().in_).collect();
            let expected: Vec<u64> = all
                .iter()
                .filter(|t| t.label() == Some(label.as_str()))
                .map(|t| t.in_)
                .collect();
            prop_assert_eq!(by_index, expected);
        }
    }

    /// Statistics match brute-force counts.
    #[test]
    fn stats_match_bruteforce(tree in root_strategy()) {
        let mut xml = String::new();
        to_xml(&tree, &mut xml);
        let env = small_env();
        let store = shred_document(&env, "d", &xml).unwrap();
        let all: Vec<NodeTuple> = store.scan_all().map(|r| r.unwrap()).collect();
        let stats = store.stats();
        prop_assert_eq!(stats.node_count, all.len() as u64);
        prop_assert_eq!(
            stats.element_count,
            all.iter().filter(|t| t.kind == NodeType::Element).count() as u64
        );
        prop_assert_eq!(
            stats.text_count,
            all.iter().filter(|t| t.kind == NodeType::Text).count() as u64
        );
        for (label, count) in &stats.label_counts {
            let expected =
                all.iter().filter(|t| t.label() == Some(label.as_str())).count() as u64;
            prop_assert_eq!(*count, expected);
        }
    }
}
