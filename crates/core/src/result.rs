//! Query results: a sequence of output items held as serialized XML.

use std::time::Duration;
use xmldb_obs::SpanTree;
use xmldb_storage::{GovernorSnapshot, IoSnapshot};
use xmldb_xml::XmlWriter;

/// Execution metrics attached to a [`QueryResult`] by the engine
/// dispatcher: wall time plus the buffer-pool traffic the query caused
/// (an [`IoSnapshot`] delta over the store's environment).
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Wall-clock evaluation time (parse excluded, plan included).
    pub elapsed: Duration,
    /// Buffer-pool counter deltas for this query: hits, misses, physical
    /// reads and writes.
    pub io: IoSnapshot,
    /// Resource-governor counters for this query: cooperative checks,
    /// peak accounted bytes, budget-pressure spills. Inactive (all zeros)
    /// when the query ran without limits.
    pub governor: GovernorSnapshot,
    /// FNV-1a digest of the physical plan shape; `None` for interpreter
    /// engines (they have no plan).
    pub plan_digest: Option<u64>,
    /// The query's span tree (`parse → analyze → optimize → plan → exec`
    /// with storage sub-spans); empty when the query ran through an entry
    /// point that does not install a trace collector.
    pub spans: SpanTree,
    /// Wire-level request id, echoed from
    /// [`crate::engine::QueryOptions::request_id`]; `None` for local
    /// calls.
    pub request_id: Option<u64>,
}

/// The result of evaluating an XQ query: a sequence of constructed and/or
/// copied nodes, in output order, held as its canonical compact
/// serialization plus the number of items.
///
/// The engines write the serialization into an [`XmlWriter`] while they
/// run, inside their execution scope — copied subtrees are read while the
/// query's transaction and the document are still there — and build no
/// result DOM. Two results are equal iff their serializations are
/// byte-equal — exactly how the course's submission&test system diffed
/// engine outputs against the reference answers.
#[derive(Debug, Clone)]
pub struct QueryResult {
    xml: String,
    items: usize,
    // Boxed: the metrics block (io snapshot, governor counters, span tree)
    // is larger than the result header itself and most results move
    // through channels and enum variants by value.
    metrics: Option<Box<QueryMetrics>>,
}

impl QueryResult {
    /// Takes what an engine wrote.
    pub(crate) fn new(out: XmlWriter) -> QueryResult {
        QueryResult {
            items: out.items(),
            xml: out.into_string(),
            metrics: None,
        }
    }

    /// An empty result.
    pub fn empty() -> QueryResult {
        QueryResult::new(XmlWriter::new())
    }

    /// Attaches execution metrics (done by the engine dispatcher).
    pub(crate) fn set_metrics(&mut self, metrics: QueryMetrics) {
        self.metrics = Some(Box::new(metrics));
    }

    /// Execution metrics, if the result came through an entry point that
    /// measures them (`Database::query` and friends). `None` for results
    /// built by lower-level calls (e.g. [`QueryResult::empty`]).
    pub fn metrics(&self) -> Option<&QueryMetrics> {
        self.metrics.as_deref()
    }

    /// Mutable metrics access (the facade attaches the span tree after the
    /// trace scope closes).
    pub(crate) fn metrics_mut(&mut self) -> Option<&mut QueryMetrics> {
        self.metrics.as_deref_mut()
    }

    /// Number of top-level items; adjacent top-level text is one item.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True if the query produced nothing.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Canonical compact serialization of the whole result sequence.
    pub fn to_xml(&self) -> String {
        self.xml.clone()
    }

    /// [`Self::to_xml`] without the copy.
    pub fn into_xml(self) -> String {
        self.xml
    }
}

impl PartialEq for QueryResult {
    fn eq(&self, other: &Self) -> bool {
        self.xml == other.xml
    }
}

impl Eq for QueryResult {}

impl std::fmt::Display for QueryResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.xml)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_result() {
        let r = QueryResult::empty();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.to_xml(), "");
    }

    #[test]
    fn items_and_serialization() {
        let mut out = XmlWriter::new();
        out.open("a");
        out.text("x");
        out.close();
        out.text("tail");
        let r = QueryResult::new(out);
        assert_eq!(r.len(), 2);
        assert_eq!(r.to_xml(), "<a>x</a>tail");
        assert_eq!(r.into_xml(), "<a>x</a>tail");
    }

    #[test]
    fn equality_is_canonical_serialization() {
        let result = || {
            let mut out = XmlWriter::new();
            out.open("a");
            out.close();
            QueryResult::new(out)
        };
        assert_eq!(result(), result());
    }
}
