#![warn(missing_docs)]

//! XASR — extended access support relations [Fiebig & Moerkotte, WebDB'00],
//! the storage encoding of milestone 2.
//!
//! Every node of an XML document becomes one tuple of the relation
//!
//! ```text
//! Node(in, out, parent_in, type, value)
//! ```
//!
//! where `in`/`out` are the Figure 2 tag-count labels, `parent_in` is the
//! parent's `in` value, `type` is root/element/text, and `value` is the
//! element label, the text content, or NULL for the root.
//!
//! Structural relationships reduce to arithmetic on the labels:
//!
//! * child:       `y.parent_in = x.in`
//! * descendant:  `x.in < y.in ∧ y.out < x.out`
//!
//! The [`store::XasrStore`] persists a document as three B+-trees:
//!
//! | index | key | value | serves |
//! |-------|-----|-------|--------|
//! | clustered | `in` | full tuple | point lookups, descendant-interval scans, reconstruction |
//! | label | `(label, in)` | `(out, parent_in)` | `descendant::a` as a covering range scan, label selections |
//! | parent | `(parent_in, in)` | `(out, type, value)` | `child::ν` as a covering range scan |
//! | text | `(value-prefix, in)` | `(out, parent_in, full text)` | equality selections and value joins as index probes (extension index) |
//!
//! Shredding is streaming (milestone 2 forbids building the DOM): events
//! flow through external sorters keyed per index, then each index is
//! bulk-loaded. Statistics (label selectivities, average node depth — the
//! milestone-4 minimum) are gathered in the same pass and persisted in a
//! separate storage structure, as the paper requires.

pub mod predicates;
pub mod shred;
pub mod stats;
pub mod store;
pub mod tuple;

pub use shred::shred_document;
pub use stats::Statistics;
pub use store::{file_names, XasrStore};
pub use tuple::{NodeTuple, NodeType};

/// Result alias (storage errors dominate this crate).
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from the XASR layer.
#[derive(Debug, Clone)]
pub enum Error {
    /// Underlying storage failure.
    Storage(xmldb_storage::StorageError),
    /// Malformed input document.
    Xml(xmldb_xml::XmlError),
    /// On-disk tuple bytes that do not decode.
    Corrupt(String),
}

impl From<xmldb_storage::StorageError> for Error {
    fn from(e: xmldb_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<xmldb_xml::XmlError> for Error {
    fn from(e: xmldb_xml::XmlError) -> Self {
        Error::Xml(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage: {e}"),
            Error::Xml(e) => write!(f, "xml: {e}"),
            Error::Corrupt(msg) => write!(f, "corrupt XASR data: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            Error::Xml(e) => Some(e),
            Error::Corrupt(_) => None,
        }
    }
}
