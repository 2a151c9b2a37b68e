#![warn(missing_docs)]

//! XML substrate for the saardb native XML-DBMS.
//!
//! The paper handed students a C++ scanner/parser skeleton for XML documents;
//! this crate is the equivalent substrate, built from scratch:
//!
//! * [`tokenizer`] — a low-level, zero-copy-ish XML tokenizer,
//! * [`reader`] — a pull-based event reader with well-formedness checking,
//! * [`dom`] — an arena-backed DOM suitable for the milestone-1 in-memory
//!   engine,
//! * [`labeling`] — the in/out (pre/post tag-count) numbering of Figure 2,
//!   the basis of the XASR encoding,
//! * [`serializer`] — compact XML output ([`XmlWriter`], which the query
//!   engines write results into) and DOM serialization back to XML text,
//! * [`escape`] — entity escaping and resolution.
//!
//! The supported dialect is deliberately the one the course needed: elements,
//! attributes, text, comments, processing instructions, CDATA and the XML
//! declaration are parsed; DTDs are skipped. The data model exposed to the
//! query processor (root/element/text) matches the XASR `type` column.

pub mod dom;
pub mod escape;
pub mod labeling;
pub mod reader;
pub mod serializer;
pub mod tokenizer;

mod error;

pub use dom::{Document, NodeId, NodeKind};
pub use error::{XmlError, XmlErrorKind};
pub use labeling::Labeling;
pub use reader::{Event, EventReader, ParseOptions};
pub use serializer::{serialize_document, SerializeOptions, XmlWriter};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, XmlError>;

/// Parses a complete XML document into a [`Document`] using default
/// [`ParseOptions`].
///
/// ```
/// let doc = xmldb_xml::parse("<journal><name>Ana</name></journal>").unwrap();
/// assert_eq!(doc.root_element().map(|e| doc.name(e)), Some("journal"));
/// ```
pub fn parse(input: &str) -> Result<Document> {
    Document::parse(input, &ParseOptions::default())
}

/// Parses a complete XML document with explicit options.
pub fn parse_with(input: &str, options: &ParseOptions) -> Result<Document> {
    Document::parse(input, options)
}
