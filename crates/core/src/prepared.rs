//! Prepared queries: parse, compile and plan once, execute many times.
//!
//! The course's efficiency tests re-ran the same queries; a real client
//! does too. [`Database::prepare`] front-loads the per-query work (XQ
//! parsing, TPM compilation, rewriting, planning) so each
//! [`PreparedQuery::execute`] only runs the physical plans.

use crate::database::Database;
use crate::engine::{self, Compiled, EngineKind, QueryOptions};
use crate::{QueryResult, Result};

/// A query bound to a document and an engine, with all per-query
/// compilation already done.
///
/// ```
/// use xmldb_core::{Database, EngineKind};
/// let db = Database::in_memory();
/// db.load_document("d", "<a><n>x</n></a>").unwrap();
/// let q = db.prepare("d", "//n", EngineKind::M4CostBased).unwrap();
/// assert_eq!(q.execute().unwrap().to_xml(), "<n>x</n>");
/// assert_eq!(q.execute().unwrap().to_xml(), "<n>x</n>"); // no re-planning
/// ```
pub struct PreparedQuery {
    db: Database,
    doc: String,
    engine: EngineKind,
    options: QueryOptions,
    compiled: Compiled,
}

impl Database {
    /// Prepares `query` against `doc` for repeated execution with `engine`.
    pub fn prepare(&self, doc: &str, query: &str, engine: EngineKind) -> Result<PreparedQuery> {
        self.prepare_with(doc, query, engine, &QueryOptions::default())
    }

    /// [`Self::prepare`] with per-query options.
    pub fn prepare_with(
        &self,
        doc: &str,
        query: &str,
        engine: EngineKind,
        options: &QueryOptions,
    ) -> Result<PreparedQuery> {
        let expr = xmldb_xq::parse(query)?;
        let store = self.store_in(doc, options)?;
        Ok(PreparedQuery {
            db: self.clone(),
            doc: doc.to_string(),
            engine,
            options: options.clone(),
            compiled: engine::compile(&store, &expr, engine, options),
        })
    }
}

impl PreparedQuery {
    /// The engine this query was prepared for.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The document this query was prepared against.
    pub fn document(&self) -> &str {
        &self.doc
    }

    /// Runs the prepared query exactly as an ad-hoc query runs once it is
    /// compiled: under the governor (a fresh deadline per execution) and
    /// the transaction its preparation options describe, with metrics
    /// attached and the engine's latency histogram and counter updated.
    pub fn execute(&self) -> Result<QueryResult> {
        let store = self.db.store_in(&self.doc, &self.options)?;
        engine::execute(&store, || &self.compiled, self.engine, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str =
        "<lib><journal><name>Ana</name></journal><journal><name>Bob</name></journal></lib>";
    const QUERY: &str =
        "<names>{ for $j in //journal return for $n in $j//name return $n }</names>";

    #[test]
    fn prepared_matches_adhoc_for_all_engines() {
        let db = Database::in_memory();
        db.load_document("d", DOC).unwrap();
        for engine in EngineKind::ALL {
            let adhoc = db.query("d", QUERY, engine).unwrap();
            let prepared = db.prepare("d", QUERY, engine).unwrap();
            assert_eq!(prepared.execute().unwrap(), adhoc, "{engine}");
            // Second execution must be identical (no state corruption).
            assert_eq!(prepared.execute().unwrap(), adhoc, "{engine} re-exec");
            assert_eq!(prepared.engine(), engine);
            assert_eq!(prepared.document(), "d");
        }
    }

    #[test]
    fn prepared_sees_document_replacement() {
        // Prepared plans reference the document by name; replacing the
        // document re-resolves the store at execute time.
        let db = Database::in_memory();
        db.load_document("d", "<a><n>old</n></a>").unwrap();
        let q = db.prepare("d", "//n", EngineKind::M2Storage).unwrap();
        assert_eq!(q.execute().unwrap().to_xml(), "<n>old</n>");
        db.replace_document("d", "<a><n>new</n></a>").unwrap();
        assert_eq!(q.execute().unwrap().to_xml(), "<n>new</n>");
    }

    #[test]
    fn prepare_rejects_bad_queries_eagerly() {
        let db = Database::in_memory();
        db.load_document("d", "<a/>").unwrap();
        assert!(matches!(
            db.prepare("d", "for $x in", EngineKind::M4CostBased),
            Err(crate::Error::Query(_))
        ));
        assert!(matches!(
            db.prepare("missing", "//a", EngineKind::M4CostBased),
            Err(crate::Error::NoSuchDocument(_))
        ));
    }
}
