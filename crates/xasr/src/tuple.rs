//! The XASR tuple and its on-disk encodings.

use crate::{Error, Result};
use xmldb_storage::codec;

/// The `type` column of the XASR relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeType {
    /// The virtual document root (`in` = 1, `parent_in` = 0, value NULL).
    Root,
    /// An element; `value` holds its label.
    Element,
    /// A text node; `value` holds its character data.
    Text,
}

impl NodeType {
    fn to_byte(self) -> u8 {
        match self {
            NodeType::Root => 0,
            NodeType::Element => 1,
            NodeType::Text => 2,
        }
    }

    fn from_byte(b: u8) -> Result<NodeType> {
        match b {
            0 => Ok(NodeType::Root),
            1 => Ok(NodeType::Element),
            2 => Ok(NodeType::Text),
            other => Err(Error::Corrupt(format!("bad node type byte {other}"))),
        }
    }
}

impl std::fmt::Display for NodeType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeType::Root => f.write_str("root"),
            NodeType::Element => f.write_str("element"),
            NodeType::Text => f.write_str("text"),
        }
    }
}

/// One row of `Node(in, out, parent_in, type, value)`.
///
/// Example 1 of the paper: the `journal` and `Ana` nodes of the Figure 2
/// document are `(2, 17, 1, element, journal)` and `(5, 6, 4, text, Ana)`.
#[derive(Debug, PartialEq, Eq)]
pub struct NodeTuple {
    /// Tags encountered before this node's opening tag, plus one.
    pub in_: u64,
    /// Tags encountered before this node's closing tag, plus one.
    pub out: u64,
    /// The parent's `in` value (0 for the root, which has no parent).
    pub parent_in: u64,
    /// Node kind.
    pub kind: NodeType,
    /// Element label / text content / `None` for the root (SQL NULL).
    pub value: Option<String>,
}

impl Clone for NodeTuple {
    fn clone(&self) -> NodeTuple {
        NodeTuple {
            value: self.value.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s value buffer: rebinding a variable row after row
    /// allocates nothing once the buffer is big enough.
    fn clone_from(&mut self, source: &NodeTuple) {
        self.value.clone_from(&source.value);
        (self.in_, self.out) = (source.in_, source.out);
        (self.parent_in, self.kind) = (source.parent_in, source.kind);
    }
}

impl NodeTuple {
    /// The NULL tuple of left-outer joins: `in` = 0 never occurs in a real
    /// document (tag counting starts at 1 on the root).
    pub fn null() -> NodeTuple {
        NodeTuple {
            in_: 0,
            out: 0,
            parent_in: 0,
            kind: NodeType::Root,
            value: None,
        }
    }

    /// True for the left-outer-join NULL tuple.
    pub fn is_null(&self) -> bool {
        self.in_ == 0
    }

    /// The label of an element node, if this is one.
    pub fn label(&self) -> Option<&str> {
        match self.kind {
            NodeType::Element => self.value.as_deref(),
            _ => None,
        }
    }

    /// The character data of a text node, if this is one.
    pub fn text(&self) -> Option<&str> {
        match self.kind {
            NodeType::Text => self.value.as_deref(),
            _ => None,
        }
    }

    /// Number of nodes in the subtree rooted here (the interval `[in, out]`
    /// contains exactly `2·size` tag counts).
    pub fn subtree_size(&self) -> u64 {
        (self.out - self.in_).div_ceil(2)
    }

    // --- record encoding (clustered index value) ------------------------------

    /// Serializes the full tuple (the clustered index's value).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26 + self.value.as_ref().map_or(0, |v| v.len() + 4));
        self.borrowed().encode_into(&mut out);
        out
    }

    /// This tuple with its value borrowed.
    pub(crate) fn borrowed(&self) -> TupleRef<'_> {
        TupleRef {
            in_: self.in_,
            out: self.out,
            parent_in: self.parent_in,
            kind: self.kind,
            value: self.value.as_deref(),
        }
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(buf: &[u8]) -> Result<NodeTuple> {
        let t = TupleRef::decode(buf)?;
        Ok(NodeTuple {
            in_: t.in_,
            out: t.out,
            parent_in: t.parent_in,
            kind: t.kind,
            value: t.value.map(str::to_string),
        })
    }

    // --- key encodings ---------------------------------------------------------

    /// Clustered index key: `in` (big-endian, so byte order = numeric order).
    pub fn clustered_key(in_: u64) -> Vec<u8> {
        Self::clustered_key_bytes(in_).to_vec()
    }

    /// [`Self::clustered_key`] without an allocation.
    pub fn clustered_key_bytes(in_: u64) -> [u8; 8] {
        in_.to_be_bytes()
    }

    /// Label index key: `(label, in)`.
    pub fn label_key(label: &str, in_: u64) -> Vec<u8> {
        let mut k = Vec::with_capacity(label.len() + 9);
        Self::put_label_key(&mut k, label, in_);
        k
    }

    /// Appends [`Self::label_key`] to `out`.
    pub(crate) fn put_label_key(out: &mut Vec<u8>, label: &str, in_: u64) {
        codec::put_str_terminated(out, label);
        codec::put_u64(out, in_);
    }

    /// Prefix of all label-index keys with this label.
    pub fn label_prefix(label: &str) -> Vec<u8> {
        let mut k = Vec::with_capacity(label.len() + 1);
        codec::put_str_terminated(&mut k, label);
        k
    }

    /// Parent index key: `(parent_in, in)`.
    pub fn parent_key(parent_in: u64, in_: u64) -> Vec<u8> {
        let mut k = Vec::with_capacity(16);
        Self::put_parent_key(&mut k, parent_in, in_);
        k
    }

    /// Appends [`Self::parent_key`] to `out`.
    pub(crate) fn put_parent_key(out: &mut Vec<u8>, parent_in: u64, in_: u64) {
        codec::put_u64(out, parent_in);
        codec::put_u64(out, in_);
    }

    /// Prefix of all parent-index keys under this parent.
    pub fn parent_prefix(parent_in: u64) -> Vec<u8> {
        let mut k = Vec::with_capacity(8);
        codec::put_u64(&mut k, parent_in);
        k
    }

    /// Decodes a label-index entry back into a full element tuple.
    pub fn from_label_entry(key: &[u8], value: &[u8]) -> Result<NodeTuple> {
        let mut kpos = 0;
        let label = codec::get_str_terminated(key, &mut kpos).to_string();
        let in_ = codec::get_u64(key, &mut kpos);
        let mut vpos = 0;
        let out = codec::get_u64(value, &mut vpos);
        let parent_in = codec::get_u64(value, &mut vpos);
        Ok(NodeTuple {
            in_,
            out,
            parent_in,
            kind: NodeType::Element,
            value: Some(label),
        })
    }

    /// Text-value index keys use a bounded prefix of the content so
    /// arbitrarily long text nodes still fit B+-tree key limits; equality
    /// is verified against the full value stored in the entry.
    pub const TEXT_KEY_PREFIX: usize = 48;

    /// UTF-8-safe truncation of text content to the indexable prefix.
    pub fn text_key_prefix(text: &str) -> &str {
        if text.len() <= Self::TEXT_KEY_PREFIX {
            return text;
        }
        let mut end = Self::TEXT_KEY_PREFIX;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        &text[..end]
    }

    /// Text index key: `(value-prefix, in)`.
    pub fn text_key(text: &str, in_: u64) -> Vec<u8> {
        let mut k = Vec::with_capacity(Self::TEXT_KEY_PREFIX + 9);
        Self::put_text_key(&mut k, text, in_);
        k
    }

    /// Appends [`Self::text_key`] to `out`.
    pub(crate) fn put_text_key(out: &mut Vec<u8>, text: &str, in_: u64) {
        codec::put_str_terminated(out, Self::text_key_prefix(text));
        codec::put_u64(out, in_);
    }

    /// Prefix of all text-index keys whose content starts with the
    /// indexable prefix of `text`.
    pub fn text_prefix(text: &str) -> Vec<u8> {
        let prefix = Self::text_key_prefix(text);
        let mut k = Vec::with_capacity(prefix.len() + 1);
        codec::put_str_terminated(&mut k, prefix);
        k
    }

    /// Decodes a text-index entry if its full content is `text`, comparing
    /// the stored bytes in place; `None` for an entry that only shares the
    /// key prefix.
    pub fn from_text_entry_eq(key: &[u8], value: &[u8], text: &str) -> Option<NodeTuple> {
        if codec::get_bytes(value, &mut 16) != text.as_bytes() {
            return None;
        }
        let mut kpos = 0;
        codec::get_str_terminated(key, &mut kpos);
        Some(NodeTuple {
            in_: codec::get_u64(key, &mut kpos),
            out: codec::get_u64(value, &mut 0),
            parent_in: codec::get_u64(value, &mut 8),
            kind: NodeType::Text,
            value: Some(text.to_string()),
        })
    }

    /// Decodes a parent-index entry back into a full tuple.
    pub fn from_parent_entry(key: &[u8], value: &[u8]) -> Result<NodeTuple> {
        let mut kpos = 0;
        let parent_in = codec::get_u64(key, &mut kpos);
        let in_ = codec::get_u64(key, &mut kpos);
        let mut vpos = 0;
        let out = codec::get_u64(value, &mut vpos);
        let kind = NodeType::from_byte(value[vpos])?;
        vpos += 1;
        let has_value = value[vpos] == 1;
        vpos += 1;
        let val = if has_value {
            let bytes = codec::get_bytes(value, &mut vpos);
            Some(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| Error::Corrupt("tuple value not UTF-8".into()))?,
            )
        } else {
            None
        };
        Ok(NodeTuple {
            in_,
            out,
            parent_in,
            kind,
            value: val,
        })
    }
}

/// [`NodeTuple`]'s fields with the value borrowed: a clustered record
/// decoded in place, so a scan can read the tuple without allocating, or
/// a node the shredder encodes into its index entries.
#[derive(Clone, Copy)]
pub(crate) struct TupleRef<'a> {
    pub(crate) in_: u64,
    pub(crate) out: u64,
    pub(crate) parent_in: u64,
    pub(crate) kind: NodeType,
    pub(crate) value: Option<&'a str>,
}

impl<'a> TupleRef<'a> {
    /// Decodes [`NodeTuple::encode`]'s output.
    pub(crate) fn decode(buf: &'a [u8]) -> Result<TupleRef<'a>> {
        if buf.len() < 26 {
            return Err(Error::Corrupt(format!(
                "tuple record too short: {}",
                buf.len()
            )));
        }
        let mut pos = 0;
        let in_ = codec::get_u64(buf, &mut pos);
        let out = codec::get_u64(buf, &mut pos);
        let parent_in = codec::get_u64(buf, &mut pos);
        let kind = NodeType::from_byte(buf[pos])?;
        pos += 1;
        let has_value = buf[pos] == 1;
        pos += 1;
        let value = if has_value {
            let bytes = codec::get_bytes(buf, &mut pos);
            Some(
                std::str::from_utf8(bytes)
                    .map_err(|_| Error::Corrupt("tuple value not UTF-8".into()))?,
            )
        } else {
            None
        };
        Ok(TupleRef {
            in_,
            out,
            parent_in,
            kind,
            value,
        })
    }

    /// Appends [`NodeTuple::encode`]'s encoding to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.in_);
        codec::put_u64(out, self.out);
        codec::put_u64(out, self.parent_in);
        out.push(self.kind.to_byte());
        self.put_value(out);
    }

    /// The value column: a presence byte, then the length-prefixed bytes.
    fn put_value(&self, out: &mut Vec<u8>) {
        match self.value {
            Some(v) => {
                out.push(1);
                codec::put_bytes(out, v.as_bytes());
            }
            None => out.push(0),
        }
    }

    /// Appends the label index value, `(out, parent_in)`: with the key
    /// this covers the whole tuple except text content, which elements
    /// don't carry anyway.
    pub(crate) fn put_label_value(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.out);
        codec::put_u64(out, self.parent_in);
    }

    /// Appends the text index value, `(out, parent_in, full text)`: with
    /// the key this covers the whole tuple, including content beyond the
    /// key prefix.
    pub(crate) fn put_text_value(&self, out: &mut Vec<u8>) {
        self.put_label_value(out);
        codec::put_bytes(out, self.value.unwrap_or("").as_bytes());
    }

    /// Appends the parent index value, `(out, type, value)`: covering.
    pub(crate) fn put_parent_value(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.out);
        out.push(self.kind.to_byte());
        self.put_value(out);
    }
}

impl std::fmt::Display for NodeTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {}, {}, {})",
            self.in_,
            self.out,
            self.parent_in,
            self.kind,
            self.value.as_deref().unwrap_or("NULL")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> NodeTuple {
        NodeTuple {
            in_: 2,
            out: 17,
            parent_in: 1,
            kind: NodeType::Element,
            value: Some("journal".into()),
        }
    }

    fn ana() -> NodeTuple {
        NodeTuple {
            in_: 5,
            out: 6,
            parent_in: 4,
            kind: NodeType::Text,
            value: Some("Ana".into()),
        }
    }

    #[test]
    fn example1_display() {
        assert_eq!(journal().to_string(), "(2, 17, 1, element, journal)");
        assert_eq!(ana().to_string(), "(5, 6, 4, text, Ana)");
    }

    #[test]
    fn encode_decode_roundtrip() {
        for tuple in [
            journal(),
            ana(),
            NodeTuple {
                in_: 1,
                out: 18,
                parent_in: 0,
                kind: NodeType::Root,
                value: None,
            },
        ] {
            assert_eq!(NodeTuple::decode(&tuple.encode()).unwrap(), tuple);
        }
    }

    /// What `put` appends for `t`.
    fn value(t: &NodeTuple, put: impl FnOnce(TupleRef<'_>, &mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        put(t.borrowed(), &mut out);
        out
    }

    #[test]
    fn label_entry_roundtrip() {
        let t = journal();
        let key = NodeTuple::label_key("journal", t.in_);
        let val = value(&t, |t, v| t.put_label_value(v));
        assert_eq!(NodeTuple::from_label_entry(&key, &val).unwrap(), t);
    }

    #[test]
    fn parent_entry_roundtrip() {
        for t in [journal(), ana()] {
            let key = NodeTuple::parent_key(t.parent_in, t.in_);
            let val = value(&t, |t, v| t.put_parent_value(v));
            assert_eq!(NodeTuple::from_parent_entry(&key, &val).unwrap(), t);
        }
    }

    #[test]
    fn key_orders() {
        // Clustered keys order by in.
        assert!(NodeTuple::clustered_key(2) < NodeTuple::clustered_key(17));
        // Label keys order by (label, in).
        assert!(NodeTuple::label_key("author", 99) < NodeTuple::label_key("journal", 1));
        assert!(NodeTuple::label_key("name", 4) < NodeTuple::label_key("name", 8));
        // Parent keys order by (parent_in, in).
        assert!(NodeTuple::parent_key(3, 8) < NodeTuple::parent_key(4, 5));
        // Prefixes are prefixes.
        assert!(NodeTuple::label_key("name", 4).starts_with(&NodeTuple::label_prefix("name")));
        assert!(NodeTuple::parent_key(3, 4).starts_with(&NodeTuple::parent_prefix(3)));
    }

    #[test]
    fn text_entry_roundtrip() {
        let t = ana();
        let key = NodeTuple::text_key("Ana", t.in_);
        let val = value(&t, |t, v| t.put_text_value(v));
        assert_eq!(NodeTuple::from_text_entry_eq(&key, &val, "Ana").unwrap(), t);
        assert_eq!(NodeTuple::from_text_entry_eq(&key, &val, "An"), None);
        assert!(key.starts_with(&NodeTuple::text_prefix("Ana")));
    }

    #[test]
    fn text_key_prefix_is_utf8_safe() {
        // A multibyte char straddling the 48-byte boundary must not split.
        let s = format!("{}{}", "a".repeat(47), "é is multibyte");
        let prefix = NodeTuple::text_key_prefix(&s);
        assert!(prefix.len() <= NodeTuple::TEXT_KEY_PREFIX);
        assert!(s.starts_with(prefix));
        // Long texts sharing a prefix share the index prefix.
        let long_a = format!("{}{}", "x".repeat(60), "AAA");
        let long_b = format!("{}{}", "x".repeat(60), "BBB");
        assert_eq!(
            NodeTuple::text_prefix(&long_a),
            NodeTuple::text_prefix(&long_b)
        );
        // Full content survives in the entry.
        let t = NodeTuple {
            in_: 5,
            out: 6,
            parent_in: 4,
            kind: NodeType::Text,
            value: Some(long_a.clone()),
        };
        let back = NodeTuple::from_text_entry_eq(
            &NodeTuple::text_key(&long_a, 5),
            &value(&t, |t, v| t.put_text_value(v)),
            &long_a,
        )
        .unwrap();
        assert_eq!(back.text(), Some(long_a.as_str()));
    }

    #[test]
    fn subtree_size() {
        assert_eq!(journal().subtree_size(), 8);
        assert_eq!(ana().subtree_size(), 1);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NodeTuple::decode(&[1, 2, 3]).is_err());
        let mut bytes = journal().encode();
        bytes[24] = 9; // invalid kind byte
        assert!(NodeTuple::decode(&bytes).is_err());
    }
}
