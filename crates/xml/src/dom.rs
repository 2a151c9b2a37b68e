//! Arena-backed DOM used by the milestone-1 in-memory engine and by query
//! result construction.
//!
//! Nodes live in a flat `Vec`; a [`NodeId`] is an index into it. The data
//! model matches the XASR `type` column: a virtual root, elements, and text.
//! Attributes are retained on elements for serialization fidelity even
//! though XQ has no axis that reaches them.

use crate::reader::{Event, EventReader, ParseOptions};
use crate::Result;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a DOM node — exactly the XASR `type` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The virtual document root (exactly one per document, id 0).
    Root,
    /// An element node; its `value` is the tag name.
    Element,
    /// A text node; its `value` is the character data.
    Text,
}

#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    /// Tag name for elements, character data for text, empty for the root.
    value: String,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    attrs: Vec<(String, String)>,
}

/// An XML document (or constructed result fragment) as a node arena.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the virtual root.
    pub fn new() -> Self {
        Document {
            nodes: vec![NodeData {
                kind: NodeKind::Root,
                value: String::new(),
                parent: None,
                children: Vec::new(),
                attrs: Vec::new(),
            }],
        }
    }

    /// Parses `input` into a document.
    pub fn parse(input: &str, options: &ParseOptions) -> Result<Document> {
        let mut doc = Document::new();
        let mut reader = EventReader::new(input, options.clone());
        let mut stack = vec![doc.root()];
        while let Some(event) = reader.next_event()? {
            match event {
                Event::StartElement { name, attrs } => {
                    let parent = *stack.last().expect("stack never empty");
                    let id = doc.add_element_with_attrs(parent, name, attrs);
                    stack.push(id);
                }
                Event::EndElement { .. } => {
                    stack.pop();
                }
                Event::Text(text) => {
                    let parent = *stack.last().expect("stack never empty");
                    doc.add_text(parent, &text);
                }
                Event::Comment(_) | Event::Pi { .. } => {
                    // Not representable in the root/element/text data model.
                }
            }
        }
        Ok(doc)
    }

    /// The virtual root node (always present).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The single element child of the root, if the document has one.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(self.root())
            .iter()
            .copied()
            .find(|&c| self.kind(c) == NodeKind::Element)
    }

    /// Total number of nodes, including the virtual root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document contains only the virtual root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// Tag name of an element, character data of a text node, `""` for the
    /// root.
    #[inline]
    pub fn value(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].value
    }

    /// Tag name (alias of [`Self::value`] for elements, reads better at call
    /// sites).
    #[inline]
    pub fn name(&self, id: NodeId) -> &str {
        self.value(id)
    }

    /// Attributes of an element in document order.
    pub fn attrs(&self, id: NodeId) -> &[(String, String)] {
        &self.nodes[id.index()].attrs
    }

    /// Parent node, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Children in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            depth += 1;
            cur = p;
        }
        depth
    }

    /// Proper descendants of `id` in document order (excludes `id` itself),
    /// matching the XQuery `descendant` axis.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        let mut stack = Vec::new();
        stack.extend(self.children(id).iter().rev().copied());
        Descendants { doc: self, stack }
    }

    /// The concatenated text content of the subtree rooted at `id` (the
    /// XPath *string value*).
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text => out.push_str(self.value(id)),
            _ => {
                for &child in self.children(id) {
                    self.collect_text(child, out);
                }
            }
        }
    }

    // --- construction -------------------------------------------------------

    /// Appends an element named `name` under `parent`; returns its id.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        self.add_element_with_attrs(parent, name.into(), Vec::new())
    }

    /// Appends an element with attributes under `parent`.
    pub fn add_element_with_attrs(
        &mut self,
        parent: NodeId,
        name: String,
        attrs: Vec<(String, String)>,
    ) -> NodeId {
        self.push_node(NodeData {
            kind: NodeKind::Element,
            value: name,
            parent: Some(parent),
            children: Vec::new(),
            attrs,
        })
    }

    /// Appends text under `parent`, merging with a preceding text sibling so
    /// a document never contains adjacent text nodes (an XQuery data-model
    /// invariant relied on by the comparison semantics). Empty text with no
    /// text sibling still becomes a node, so its parent serializes as
    /// `<a></a>`, not `<a/>`.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        if let Some(&last) = self.nodes[parent.index()].children.last() {
            if self.kind(last) == NodeKind::Text {
                self.nodes[last.index()].value.push_str(text);
                return last;
            }
        }
        self.push_node(NodeData {
            kind: NodeKind::Text,
            value: text.to_string(),
            parent: Some(parent),
            children: Vec::new(),
            attrs: Vec::new(),
        })
    }

    fn push_node(&mut self, data: NodeData) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("document exceeds u32 nodes"));
        let parent = data.parent;
        self.nodes.push(data);
        if let Some(p) = parent {
            self.nodes[p.index()].children.push(id);
        }
        id
    }

    /// Deep-copies the subtree rooted at `src` in `other` under `parent` in
    /// `self`; returns the id of the copy. Used by node construction when a
    /// query writes an input subtree into its output.
    pub fn copy_subtree(&mut self, parent: NodeId, other: &Document, src: NodeId) -> NodeId {
        match other.kind(src) {
            NodeKind::Text => self.add_text(parent, other.value(src)),
            NodeKind::Element => {
                let id = self.add_element_with_attrs(
                    parent,
                    other.value(src).to_string(),
                    other.attrs(src).to_vec(),
                );
                for &child in other.children(src) {
                    self.copy_subtree(id, other, child);
                }
                id
            }
            NodeKind::Root => {
                // Copying a root copies its children into `parent`.
                let mut last = parent;
                for &child in other.children(src) {
                    last = self.copy_subtree(parent, other, child);
                }
                last
            }
        }
    }

    /// Structural equality of two subtrees (kind, value, attributes and
    /// children, recursively). Document identity and node ids are ignored.
    pub fn subtree_eq(&self, a: NodeId, other: &Document, b: NodeId) -> bool {
        if self.kind(a) != other.kind(b)
            || self.value(a) != other.value(b)
            || self.attrs(a) != other.attrs(b)
        {
            return false;
        }
        let ca = self.children(a);
        let cb = other.children(b);
        ca.len() == cb.len()
            && ca
                .iter()
                .zip(cb.iter())
                .all(|(&x, &y)| self.subtree_eq(x, other, y))
    }
}

/// Document-order iterator over proper descendants; see
/// [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        self.stack
            .extend(self.doc.children(id).iter().rev().copied());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 2 document of the paper.
    pub(crate) const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    #[test]
    fn parse_builds_expected_tree() {
        let doc = crate::parse(FIGURE2).unwrap();
        let journal = doc.root_element().unwrap();
        assert_eq!(doc.name(journal), "journal");
        let kids = doc.children(journal);
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.name(kids[0]), "authors");
        assert_eq!(doc.name(kids[1]), "title");
        assert_eq!(doc.string_value(journal), "AnaBobDB");
    }

    #[test]
    fn descendants_in_document_order() {
        let doc = crate::parse(FIGURE2).unwrap();
        let journal = doc.root_element().unwrap();
        let values: Vec<&str> = doc.descendants(journal).map(|n| doc.value(n)).collect();
        assert_eq!(
            values,
            vec!["authors", "name", "Ana", "name", "Bob", "title", "DB"]
        );
    }

    #[test]
    fn descendants_exclude_self() {
        let doc = crate::parse("<a><b/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let d: Vec<NodeId> = doc.descendants(a).collect();
        assert_eq!(d.len(), 1);
        assert_eq!(doc.name(d[0]), "b");
    }

    #[test]
    fn root_descendants_include_root_element() {
        let doc = crate::parse(FIGURE2).unwrap();
        let names: Vec<&str> = doc.descendants(doc.root()).map(|n| doc.value(n)).collect();
        assert_eq!(names.len(), 8);
        assert_eq!(names[0], "journal");
    }

    #[test]
    fn depth_and_parent() {
        let doc = crate::parse(FIGURE2).unwrap();
        let journal = doc.root_element().unwrap();
        let authors = doc.children(journal)[0];
        let name = doc.children(authors)[0];
        let ana = doc.children(name)[0];
        assert_eq!(doc.depth(doc.root()), 0);
        assert_eq!(doc.depth(journal), 1);
        assert_eq!(doc.depth(ana), 4);
        assert_eq!(doc.parent(ana), Some(name));
        assert_eq!(doc.parent(doc.root()), None);
    }

    #[test]
    fn adjacent_text_merged() {
        let mut doc = Document::new();
        let a = doc.add_element(doc.root(), "a");
        doc.add_text(a, "x");
        doc.add_text(a, "y");
        assert_eq!(doc.children(a).len(), 1);
        assert_eq!(doc.value(doc.children(a)[0]), "xy");
    }

    #[test]
    fn copy_subtree_is_deep() {
        let src = crate::parse(FIGURE2).unwrap();
        let mut dst = Document::new();
        let wrapper = dst.add_element(dst.root(), "copy");
        let copied = dst.copy_subtree(wrapper, &src, src.root_element().unwrap());
        assert!(dst.subtree_eq(copied, &src, src.root_element().unwrap()));
        assert_eq!(dst.string_value(wrapper), "AnaBobDB");
    }

    #[test]
    fn subtree_eq_detects_differences() {
        let a = crate::parse("<a><b>x</b></a>").unwrap();
        let b = crate::parse("<a><b>y</b></a>").unwrap();
        let c = crate::parse("<a><b>x</b></a>").unwrap();
        let (ra, rb, rc) = (
            a.root_element().unwrap(),
            b.root_element().unwrap(),
            c.root_element().unwrap(),
        );
        assert!(!a.subtree_eq(ra, &b, rb));
        assert!(a.subtree_eq(ra, &c, rc));
    }

    #[test]
    fn attrs_preserved() {
        let doc = crate::parse(r#"<a x="1"><b y="2"/></a>"#).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.attrs(a), &[("x".to_string(), "1".to_string())]);
    }
}
