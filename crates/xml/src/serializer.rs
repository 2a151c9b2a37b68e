//! Serialization of documents and subtrees back to XML text.
//!
//! [`XmlWriter`] holds the compact rules — escaping, and `<l/>` for
//! exactly the childless elements — once: the DOM's compact serialization
//! drives it, and so do the query engines, which write their results
//! straight into one without building a DOM.

use crate::dom::{Document, NodeId, NodeKind};
use crate::escape::{escape_attr, escape_text};

/// Compact XML output written event by event: open, attribute, text,
/// close. Produces the bytes [`serialize_document`] gives for the DOM the
/// same events would build — including that DOM's item count: adjacent
/// top-level text merges into one item, as [`Document::add_text`] merges
/// it into one node.
#[derive(Debug, Default)]
pub struct XmlWriter {
    out: String,
    /// Labels of the open elements, concatenated; `open` holds each one's
    /// start offset, so closing needs no label and no per-element
    /// allocation.
    names: String,
    open: Vec<usize>,
    /// The innermost start tag is unterminated: whether it ends in `>` or
    /// `/>` depends on whether a child follows before its close.
    tag_pending: bool,
    items: usize,
    /// The last top-level item is text.
    top_text: bool,
}

impl XmlWriter {
    /// An empty writer.
    pub fn new() -> XmlWriter {
        XmlWriter::default()
    }

    /// Starts an element named `name`.
    pub fn open(&mut self, name: &str) {
        self.child(false);
        self.out.push('<');
        self.out.push_str(name);
        self.open.push(self.names.len());
        self.names.push_str(name);
        self.tag_pending = true;
    }

    /// Adds an attribute to the element just opened (DOM elements carry
    /// attributes; stored tuples and constructed elements do not).
    fn attr(&mut self, name: &str, value: &str) {
        assert!(self.tag_pending, "attribute outside a start tag");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        self.out.push_str(&escape_attr(value));
        self.out.push('"');
    }

    /// Writes character data. Even empty text is a child: its parent is
    /// written `<l></l>`, not `<l/>`.
    pub fn text(&mut self, text: &str) {
        self.child(true);
        self.out.push_str(&escape_text(text));
    }

    /// Ends the innermost open element.
    pub fn close(&mut self) {
        let start = self.open.pop().expect("close without an open element");
        if std::mem::take(&mut self.tag_pending) {
            self.out.push_str("/>");
        } else {
            self.out.push_str("</");
            self.out.push_str(&self.names[start..]);
            self.out.push('>');
        }
        self.names.truncate(start);
    }

    /// Writes an element another writer serialized whole — the output of
    /// one `open` … `close` span — by copying its bytes.
    pub fn push_element(&mut self, xml: &str) {
        self.child(false);
        self.out.push_str(xml);
    }

    /// Writes the DOM subtree rooted at `id`; for the virtual root, its
    /// children.
    pub fn node(&mut self, doc: &Document, id: NodeId) {
        match doc.kind(id) {
            NodeKind::Text => self.text(doc.value(id)),
            NodeKind::Element => {
                self.open(doc.name(id));
                for (name, value) in doc.attrs(id) {
                    self.attr(name, value);
                }
                for &child in doc.children(id) {
                    self.node(doc, child);
                }
                self.close();
            }
            NodeKind::Root => {
                for &child in doc.children(id) {
                    self.node(doc, child);
                }
            }
        }
    }

    /// Number of top-level items written so far.
    pub fn items(&self) -> usize {
        self.items
    }

    /// The output written so far.
    pub fn into_string(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed elements");
        self.out
    }

    /// Counts a new top-level item, or terminates the parent's start tag.
    fn child(&mut self, text: bool) {
        if self.open.is_empty() {
            if !(text && self.top_text) {
                self.items += 1;
            }
            self.top_text = text;
        } else if std::mem::take(&mut self.tag_pending) {
            self.out.push('>');
        }
    }
}

/// Options controlling serialization output.
#[derive(Debug, Clone, Default)]
pub struct SerializeOptions {
    /// Pretty-print with this many spaces per nesting level; `None` emits
    /// compact output (the testbed compares compact output byte-for-byte).
    pub indent: Option<usize>,
    /// Emit an `<?xml version="1.0"?>` declaration first.
    pub xml_decl: bool,
}

/// Serializes the children of the virtual root (i.e. the whole document
/// content) compactly.
pub fn serialize_document(doc: &Document) -> String {
    serialize_with(doc, doc.root(), &SerializeOptions::default())
}

/// Serializes the subtree rooted at `id` (for the virtual root, its
/// children) with explicit options.
pub fn serialize_with(doc: &Document, id: NodeId, options: &SerializeOptions) -> String {
    const XML_DECL: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    let Some(width) = options.indent else {
        let mut writer = XmlWriter::new();
        writer.node(doc, id);
        let body = writer.into_string();
        return if options.xml_decl {
            format!("{XML_DECL}{body}")
        } else {
            body
        };
    };
    let mut out = String::new();
    if options.xml_decl {
        out.push_str(XML_DECL);
        out.push('\n');
    }
    write_node(doc, id, width, 0, &mut out);
    out
}

/// The pretty-printing path: elements start on their own line, indented
/// `width` spaces per level; text-only content stays on its element's line.
fn write_node(doc: &Document, id: NodeId, width: usize, level: usize, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Text => {
            out.push_str(&escape_text(doc.value(id)));
        }
        NodeKind::Element => {
            indent(width, level, out);
            out.push('<');
            out.push_str(doc.name(id));
            for (name, value) in doc.attrs(id) {
                out.push(' ');
                out.push_str(name);
                out.push_str("=\"");
                out.push_str(&escape_attr(value));
                out.push('"');
            }
            let children = doc.children(id);
            if children.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let only_text = children.iter().all(|&c| doc.kind(c) == NodeKind::Text);
            for &child in children {
                write_node(doc, child, width, level + 1, out);
            }
            if !only_text {
                indent(width, level, out);
            }
            out.push_str("</");
            out.push_str(doc.name(id));
            out.push('>');
        }
        NodeKind::Root => {
            for &child in doc.children(id) {
                write_node(doc, child, width, level, out);
            }
        }
    }
}

fn indent(width: usize, level: usize, out: &mut String) {
    if !out.is_empty() {
        out.push('\n');
    }
    for _ in 0..level * width {
        out.push(' ');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn roundtrip_compact() {
        let src = "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";
        let doc = parse(src).unwrap();
        assert_eq!(serialize_document(&doc), src);
    }

    #[test]
    fn empty_element_self_closes() {
        let doc = parse("<a><b></b></a>").unwrap();
        assert_eq!(serialize_document(&doc), "<a><b/></a>");
    }

    #[test]
    fn escaping_applied() {
        let mut doc = Document::new();
        let a = doc.add_element(doc.root(), "a");
        doc.add_text(a, "x < y & z");
        assert_eq!(serialize_document(&doc), "<a>x &lt; y &amp; z</a>");
    }

    #[test]
    fn attributes_serialized_and_escaped() {
        let src = r#"<a t="a&quot;b"><b/></a>"#;
        let doc = parse(src).unwrap();
        let out = serialize_document(&doc);
        let reparsed = parse(&out).unwrap();
        assert!(doc.subtree_eq(
            doc.root_element().unwrap(),
            &reparsed,
            reparsed.root_element().unwrap()
        ));
    }

    #[test]
    fn subtree_serialization() {
        let doc = parse("<a><b>x</b><c/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.children(a)[0];
        let compact = SerializeOptions::default();
        assert_eq!(serialize_with(&doc, b, &compact), "<b>x</b>");
        let text = doc.children(b)[0];
        assert_eq!(serialize_with(&doc, text, &compact), "x");
    }

    #[test]
    fn pretty_print_indents_elements() {
        let doc = parse("<a><b>x</b><c><d/></c></a>").unwrap();
        let opts = SerializeOptions {
            indent: Some(2),
            xml_decl: false,
        };
        let out = serialize_with(&doc, doc.root(), &opts);
        assert_eq!(out, "<a>\n  <b>x</b>\n  <c>\n    <d/>\n  </c>\n</a>");
    }

    #[test]
    fn xml_decl_emitted() {
        let doc = parse("<a/>").unwrap();
        let opts = SerializeOptions {
            indent: None,
            xml_decl: true,
        };
        assert_eq!(
            serialize_with(&doc, doc.root(), &opts),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>"
        );
    }

    #[test]
    fn writer_matches_the_dom_it_describes() {
        // One event sequence, written directly and built as a DOM: merged
        // top-level text, an element whose only child is empty text, an
        // escaped attribute, a childless element.
        let mut w = XmlWriter::new();
        let mut doc = Document::new();
        let root = doc.root();
        for t in ["x<", "", "&"] {
            w.text(t);
            doc.add_text(root, t);
        }
        w.open("a");
        w.attr("k", "\"v\"");
        let a = doc.add_element_with_attrs(root, "a".into(), vec![("k".into(), "\"v\"".into())]);
        w.text("");
        doc.add_text(a, "");
        w.open("b");
        doc.add_element(a, "b");
        w.close();
        w.close();
        w.open("c");
        doc.add_element(root, "c");
        w.close();
        w.text("t");
        doc.add_text(root, "t");
        assert_eq!(w.items(), doc.children(root).len());
        assert_eq!(w.items(), 4);
        let out = w.into_string();
        assert_eq!(out, serialize_document(&doc));
        assert_eq!(out, "x&lt;&amp;<a k=\"&quot;v&quot;\"><b/></a><c/>t");
    }

    #[test]
    fn roundtrip_parse_serialize_parse_is_identity() {
        let sources = [
            "<a/>",
            "<a>text</a>",
            "<a><b/><c>x</c>tail</a>",
            "<a x=\"1\" y=\"2\"><b z=\"&lt;\"/></a>",
        ];
        for src in sources {
            let doc = parse(src).unwrap();
            let out = serialize_document(&doc);
            let doc2 = parse(&out).unwrap();
            assert!(
                doc.subtree_eq(doc.root(), &doc2, doc2.root()),
                "roundtrip changed {src}"
            );
        }
    }
}
