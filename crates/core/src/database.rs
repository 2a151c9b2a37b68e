//! The `Database` facade: a storage environment holding named shredded
//! documents, queried through any of the milestone engines.

use crate::engine::{self, EngineKind, QueryOptions};
use crate::{Error, QueryResult, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmldb_obs::{span, FlightRecorder, QueryRecord, SpanTree, TraceScope};
use xmldb_storage::{Env, EnvConfig, LockMode, StorageError, Txn};
use xmldb_xasr::{file_names, shred_document, XasrStore};

/// A saardb database: an environment of shredded documents. Cloning
/// yields another handle onto the same environment (the testbed runs
/// queries on worker threads against cloned handles).
///
/// ```
/// use xmldb_core::{Database, EngineKind};
/// let db = Database::in_memory();
/// db.load_document("doc", "<a><b>x</b></a>").unwrap();
/// let r = db.query("doc", "//b", EngineKind::M1InMemory).unwrap();
/// assert_eq!(r.to_xml(), "<b>x</b>");
/// ```
#[derive(Clone)]
pub struct Database {
    env: Env,
    /// Ring of recent query records; shared by all clones of this handle,
    /// so the testbed's worker threads feed one recorder.
    flight: Arc<FlightRecorder>,
}

/// Everything `record_flight` needs to describe one `query_with` call.
struct FlightRun<'a> {
    doc: &'a str,
    query: &'a str,
    engine: EngineKind,
    options: &'a QueryOptions,
    elapsed: Duration,
    spans: SpanTree,
}

impl Database {
    /// A database over an already opened environment — e.g. one opened
    /// with [`Env::open_dir_with_decorator`] to inject faults.
    pub fn from_env(env: Env) -> Database {
        let capacity = std::env::var("SAARDB_FLIGHTREC_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(xmldb_obs::flight::DEFAULT_CAPACITY);
        let flight = Arc::new(FlightRecorder::new(capacity));
        let registry = env.registry();
        registry.help(
            "saardb_flightrec_dropped_total",
            "Flight-recorder records evicted before being scraped.",
        );
        flight.bind_dropped_counter(registry.counter("saardb_flightrec_dropped_total", &[]));
        Database { env, flight }
    }

    /// An in-memory database (tests, examples).
    pub fn in_memory() -> Database {
        Database::from_env(Env::memory())
    }

    /// An in-memory database with an explicit storage configuration (page
    /// size, buffer-pool budget — the efficiency tests' 20 MB knob).
    pub fn in_memory_with(config: EnvConfig) -> Database {
        Database::from_env(Env::memory_with(config))
    }

    /// Opens (creating if needed) an on-disk database.
    pub fn open_dir(path: impl Into<std::path::PathBuf>, config: EnvConfig) -> Result<Database> {
        Ok(Database::from_env(Env::open_dir(path, config)?))
    }

    /// The underlying storage environment.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// The flight recorder holding this database's recent query records.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Sets (or clears) the slow-query threshold: queries at or above it
    /// are re-run under EXPLAIN ANALYZE and the full output is attached to
    /// their flight record. (Queries are read-only, so the re-run is
    /// side-effect free; it is skipped when the query was cancelled or hit
    /// a governor limit — re-running those would just trip again.)
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        self.flight.set_slow_threshold(threshold);
    }

    /// Loads (shreds) an XML document under `name`, in the transaction
    /// installed on this thread or else in its own, holding an exclusive
    /// lock on the name to its end. Outside a transaction the load returns
    /// once the document is durable: its new files fsynced, one commit
    /// record, one log fsync. Until it commits, other sessions do not see
    /// the document. A failed load leaves nothing behind: its files are
    /// still uncommitted, so removing them writes no log record and works
    /// even while the environment is read-only.
    pub fn load_document(&self, name: &str, xml: &str) -> Result<()> {
        self.env.autocommit(|| {
            self.env.lock(name, LockMode::Exclusive)?;
            if XasrStore::exists(&self.env, name) {
                return Err(Error::DocumentExists(name.to_string()));
            }
            match shred_document(&self.env, name, xml) {
                Ok(_) => Ok(()),
                // Lost a race with a load of the same name: its files are
                // not ours.
                Err(xmldb_xasr::Error::Storage(StorageError::FileExists(_))) => {
                    Err(Error::DocumentExists(name.to_string()))
                }
                Err(e) => {
                    let _ = XasrStore::drop_document(&self.env, name);
                    Err(e.into())
                }
            }
        })
    }

    /// Loads a document from a file on disk.
    pub fn load_document_from_path(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<()> {
        let xml = std::fs::read_to_string(path)
            .map_err(|e| Error::Storage(xmldb_storage::StorageError::from(e)))?;
        self.load_document(name, &xml)
    }

    /// Replaces a document wholesale — the paper's "keep updates as simple
    /// as possible": no in-place node edits or relabeling, just reshred.
    pub fn replace_document(&self, name: &str, xml: &str) -> Result<()> {
        if self.has_document(name) {
            self.drop_document(name)?;
        }
        self.load_document(name, xml)
    }

    /// Removes a document and its indexes, in the transaction installed on
    /// this thread or else in its own, holding an exclusive lock on the
    /// name to its end. Under an installed transaction the drop takes
    /// effect at its commit, and a rollback keeps the document. Queries
    /// already running on the document finish on the dropped version.
    pub fn drop_document(&self, name: &str) -> Result<()> {
        self.env.autocommit(|| {
            self.env.lock(name, LockMode::Exclusive)?;
            if !XasrStore::exists(&self.env, name) {
                return Err(Error::NoSuchDocument(name.to_string()));
            }
            XasrStore::drop_document(&self.env, name)?;
            Ok(())
        })
    }

    /// True if a document named `name` is loaded.
    pub fn has_document(&self, name: &str) -> bool {
        XasrStore::exists(&self.env, name)
    }

    /// Names of the committed documents, in name order: the catalog of the
    /// environment's committed files.
    pub fn documents(&self) -> Result<Vec<String>> {
        let suffix = file_names("").clustered;
        Ok(self
            .env
            .committed_files()
            .iter()
            .filter_map(|file| file.strip_suffix(&suffix).map(str::to_string))
            .collect())
    }

    /// Serializes a whole stored document back to XML text (export; the
    /// XASR encoding is lossless for the root/element/text data model).
    pub fn document_xml(&self, name: &str) -> Result<String> {
        Ok(self.store(name)?.serialize_subtree(1)?)
    }

    /// Opens the XASR store for a document.
    pub fn store(&self, name: &str) -> Result<XasrStore> {
        self.store_in(name, &QueryOptions::default())
    }

    /// [`Self::store`] as `options`' transaction sees it: its own
    /// uncommitted loads included. Under a transaction, first takes a
    /// shared lock on the name, held to its end — also when no such
    /// document exists, so the answer repeats. Without one it takes no
    /// lock and opens the committed version; either way the store pins its
    /// files, so a concurrent drop never pulls them from under the query.
    pub(crate) fn store_in(&self, name: &str, options: &QueryOptions) -> Result<XasrStore> {
        let _txn = options.txn.as_ref().map(Txn::install);
        if self.env.in_txn() {
            // A wait for the lock honours the query's deadline and token.
            let governor = options.governor_handle();
            let _governor = governor.install();
            self.env.lock(name, LockMode::Shared)?;
        }
        match XasrStore::open(&self.env, name) {
            Err(xmldb_xasr::Error::Storage(StorageError::NoSuchFile(file)))
                if file == file_names(name).clustered =>
            {
                Err(Error::NoSuchDocument(name.to_string()))
            }
            store => Ok(store?),
        }
    }

    /// Parses and evaluates a query with the chosen engine.
    pub fn query(&self, doc: &str, query: &str, engine: EngineKind) -> Result<QueryResult> {
        self.query_with(doc, query, engine, &QueryOptions::default())
    }

    /// [`Self::query`] with per-query options (e.g. corrupted statistics).
    ///
    /// Every call runs under a trace collector (the span tree comes back
    /// in [`crate::QueryMetrics::spans`]) and deposits a record — success
    /// or failure — in the flight recorder.
    pub fn query_with(
        &self,
        doc: &str,
        query: &str,
        engine: EngineKind,
        options: &QueryOptions,
    ) -> Result<QueryResult> {
        let scope = TraceScope::start();
        let started = Instant::now();
        let result = (|| {
            let expr = {
                let _span = span("parse");
                xmldb_xq::parse(query)?
            };
            let store = self.store_in(doc, options)?;
            engine::evaluate(&store, &expr, engine, options)
        })();
        let elapsed = started.elapsed();
        let spans = scope.finish();
        let run = FlightRun {
            doc,
            query,
            engine,
            options,
            elapsed,
            spans: spans.clone(),
        };
        self.record_flight(run, &result);
        let mut result = result?;
        if let Some(m) = result.metrics_mut() {
            m.spans = spans;
        }
        Ok(result)
    }

    /// Builds and deposits the flight record for one `query_with` call,
    /// capturing EXPLAIN ANALYZE when the query was at or above the slow
    /// threshold.
    fn record_flight(&self, run: FlightRun<'_>, result: &Result<QueryResult>) {
        let FlightRun {
            doc,
            query,
            engine,
            options,
            elapsed,
            spans,
        } = run;
        let (outcome, plan_digest, metrics) = match result {
            Ok(r) => {
                let m = r.metrics();
                let deltas = m.map_or_else(Vec::new, |m| {
                    vec![
                        ("pool.hits", m.io.hits),
                        ("pool.misses", m.io.misses),
                        ("pool.evictions", m.io.evictions),
                        ("pool.physical_reads", m.io.physical_reads),
                        ("pool.physical_writes", m.io.physical_writes),
                        ("btree.node_views", m.io.node_views),
                        ("btree.in_place_searches", m.io.in_place_searches),
                        ("wal.appends", m.io.wal_appends),
                        ("wal.bytes", m.io.wal_bytes),
                        ("wal.syncs", m.io.wal_syncs),
                        ("governor.spills", m.governor.spill_count),
                    ]
                });
                (
                    format!("ok ({} item(s))", r.len()),
                    m.and_then(|m| m.plan_digest),
                    deltas,
                )
            }
            Err(e) => (format!("error: {e}"), None, Vec::new()),
        };
        // Slow-query capture: re-run under EXPLAIN ANALYZE. Sound because
        // queries are read-only; skipped for governor trips (a deadline
        // that fired once would fire again, and a cancelled query's
        // re-run was not asked for).
        let rerun_is_safe = !matches!(result, Err(e) if engine::governor_trip_kind(e).is_some());
        let is_slow = self.flight.is_slow(elapsed);
        let analyze = if is_slow && rerun_is_safe {
            self.explain_analyze_with(doc, query, engine, options).ok()
        } else {
            None
        };
        if is_slow {
            // The slow-query log line: stamped with the wire request id
            // (when there is one) so it joins against the client's log and
            // the flight record for the same statement.
            let req = options
                .request_id
                .map_or(String::new(), |id| format!(" req={id:016x}"));
            eprintln!(
                "saardb: slow query{req} doc={doc} engine={} elapsed={:.3}ms {}",
                engine.name(),
                elapsed.as_secs_f64() * 1e3,
                outcome,
            );
        }
        self.flight.record(QueryRecord {
            seq: 0,
            request_id: options.request_id,
            doc: doc.to_string(),
            query: query.to_string(),
            engine: engine.name().to_string(),
            plan_digest,
            elapsed,
            outcome,
            metrics,
            spans,
            analyze,
        });
    }

    /// EXPLAIN: the merged TPM and physical plans for `query` under
    /// `engine`.
    pub fn explain(&self, doc: &str, query: &str, engine: EngineKind) -> Result<String> {
        self.explain_with(doc, query, engine, &QueryOptions::default())
    }

    /// [`Self::explain`] with per-query options.
    pub fn explain_with(
        &self,
        doc: &str,
        query: &str,
        engine: EngineKind,
        options: &QueryOptions,
    ) -> Result<String> {
        let expr = xmldb_xq::parse(query)?;
        let store = self.store_in(doc, options)?;
        engine::explain(&store, &expr, engine, options)
    }

    /// EXPLAIN ANALYZE: runs `query` under `engine` and renders the
    /// executed plans annotated with actual row counts, open (re-execution)
    /// counts and per-operator wall time, followed by the elapsed time and
    /// the query's buffer-pool traffic.
    pub fn explain_analyze(&self, doc: &str, query: &str, engine: EngineKind) -> Result<String> {
        self.explain_analyze_with(doc, query, engine, &QueryOptions::default())
    }

    /// [`Self::explain_analyze`] with per-query options.
    pub fn explain_analyze_with(
        &self,
        doc: &str,
        query: &str,
        engine: EngineKind,
        options: &QueryOptions,
    ) -> Result<String> {
        let expr = xmldb_xq::parse(query)?;
        let store = self.store_in(doc, options)?;
        engine::explain_analyze(&store, &expr, engine, options)
    }

    /// Reaps dropped files and checkpoints the log once it has grown past
    /// its threshold (see [`Env::flush`]). It commits nothing and writes no
    /// data page: loads, drops and [`Database::begin`] transactions are
    /// durable when they commit.
    pub fn flush(&self) -> Result<()> {
        self.env.flush()?;
        Ok(())
    }

    /// Begins a transaction. Run queries inside it by setting
    /// [`QueryOptions::txn`], or install it with
    /// [`xmldb_storage::Txn::install`] around loads, drops and direct store
    /// mutations; finish with [`xmldb_storage::Txn::commit`] or
    /// [`xmldb_storage::Txn::rollback`] (dropping the last handle of an
    /// unfinished transaction rolls back). A transaction locks whole
    /// documents: shared for a query, exclusive for a load or a drop. Loads
    /// and drops without one run in their own; queries without one read
    /// the committed version lock-free.
    pub fn begin(&self) -> xmldb_storage::Txn {
        self.env.begin_txn()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("env", &self.env).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE2: &str =
        "<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>";

    #[test]
    fn load_query_all_engines_agree() {
        let db = Database::in_memory();
        db.load_document("f", FIGURE2).unwrap();
        let q = "<names>{ for $j in /journal return for $n in $j//name return $n }</names>";
        let reference = db.query("f", q, EngineKind::M1InMemory).unwrap();
        for engine in EngineKind::ALL {
            let got = db.query("f", q, engine).unwrap();
            assert_eq!(got, reference, "engine {engine} diverges");
        }
        assert_eq!(
            reference.to_xml(),
            "<names><name>Ana</name><name>Bob</name></names>"
        );
    }

    #[test]
    fn duplicate_load_rejected() {
        let db = Database::in_memory();
        db.load_document("x", "<a/>").unwrap();
        assert!(matches!(
            db.load_document("x", "<b/>"),
            Err(Error::DocumentExists(_))
        ));
    }

    #[test]
    fn missing_document_rejected() {
        let db = Database::in_memory();
        assert!(matches!(
            db.query("nope", "/a", EngineKind::M1InMemory),
            Err(Error::NoSuchDocument(_))
        ));
    }

    #[test]
    fn catalog_lists_documents() {
        let db = Database::in_memory();
        db.load_document("a", "<x/>").unwrap();
        db.load_document("b", "<y/>").unwrap();
        assert_eq!(
            db.documents().unwrap(),
            vec!["a".to_string(), "b".to_string()]
        );
        db.drop_document("a").unwrap();
        assert_eq!(db.documents().unwrap(), vec!["b".to_string()]);
        assert!(!db.has_document("a"));
    }

    #[test]
    fn syntax_errors_surface() {
        let db = Database::in_memory();
        db.load_document("d", "<a/>").unwrap();
        assert!(matches!(
            db.query("d", "for $x in", EngineKind::M1InMemory),
            Err(Error::Query(_))
        ));
        assert!(matches!(db.load_document("bad", "<a>"), Err(Error::Xml(_))));
    }

    #[test]
    fn persistent_database_roundtrip() {
        let dir = std::env::temp_dir().join(format!("saardb-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
            db.load_document("f", FIGURE2).unwrap();
            db.flush().unwrap();
        }
        {
            let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
            assert_eq!(db.documents().unwrap(), vec!["f".to_string()]);
            let r = db.query("f", "//name", EngineKind::M4CostBased).unwrap();
            assert_eq!(r.to_xml(), "<name>Ana</name><name>Bob</name>");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn document_export_roundtrips() {
        let db = Database::in_memory();
        db.load_document("f", FIGURE2).unwrap();
        assert_eq!(db.document_xml("f").unwrap(), FIGURE2);
    }

    #[test]
    fn concurrent_queries_agree() {
        let db = Database::in_memory();
        db.load_document("f", FIGURE2).unwrap();
        let expected = db
            .query("f", "//name", EngineKind::M4CostBased)
            .unwrap()
            .to_xml();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let db = db.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let engine = EngineKind::ALL[i % EngineKind::ALL.len()];
                    for _ in 0..20 {
                        let got = db.query("f", "//name", engine).unwrap();
                        assert_eq!(got.to_xml(), expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("query thread panicked");
        }
    }

    #[test]
    fn explain_output() {
        let db = Database::in_memory();
        db.load_document("f", FIGURE2).unwrap();
        let text = db.explain("f", "//name", EngineKind::M4CostBased).unwrap();
        assert!(text.contains("relfor"));
        let text = db.explain("f", "//name", EngineKind::M2Storage).unwrap();
        assert!(text.contains("interpreter"));
    }
}
