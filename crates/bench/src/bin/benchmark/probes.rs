//! Per-layer probes of the traced run: small fixed measurements taken on
//! the workload's own documents and statements, one public call each, so
//! every layer has a figure on every workload — including the layers the
//! workload's ops do not pass through.

use crate::stats::{median, SplitMix64};
use crate::workloads::{Bench, Statement, ENGINE, INGEST_QUERY};
use std::hint::black_box;
use std::time::{Duration, Instant};
use xmldb_storage::{BTree, Env};
use xmldb_xasr::tuple::NodeTuple;

/// What the wire probe runs prepared, embedded and over the wire: a rare
/// label, so the engine does little and the wire's share is near its top.
const WIRE_PROBE_QUERY: &str = "//volume";
/// The label the scan probe walks (every generated DBLP fragment has it).
const SCAN_LABEL: &str = "author";

#[derive(Debug, Clone)]
pub struct StatementProbe {
    pub name: String,
    pub parse_us: f64,
    pub prepare_us: f64,
    pub execute_us: f64,
}

#[derive(Debug, Clone)]
pub struct Probes {
    pub ping_rtt_us: f64,
    pub wire_share: f64,
    pub statements: Vec<StatementProbe>,
    pub xasr_get_ns: f64,
    pub label_scan_ns_per_row: f64,
    pub btree_get_ns: f64,
    pub shred_mb_s: f64,
    pub xml_parse_mb_s: f64,
}

impl Probes {
    /// Mean over the workload's distinct statements of a per-statement
    /// median.
    pub fn mean_us(&self, pick: impl Fn(&StatementProbe) -> f64) -> f64 {
        self.statements.iter().map(pick).sum::<f64>() / self.statements.len() as f64
    }
}

/// Clocks `f` repeatedly — at least `min` times, then until `budget` is
/// spent or `max` is reached — and returns the median in microseconds.
fn median_us(min: usize, max: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let begun = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && begun.elapsed() < budget) {
        let started = Instant::now();
        f();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

const BUDGET: Duration = Duration::from_millis(40);

pub fn run(bench: &mut Bench, rng: &mut SplitMix64) -> Result<Probes, String> {
    let (doc, xml) = bench.docs.front().cloned().ok_or("no document to probe")?;
    let db = bench.db.clone();

    // server: round trip of an empty request, and the share of a prepared
    // execution's round trip that is not the execution.
    let mut client = bench.probe_client()?;
    let mut wire_failed = false;
    let ping_rtt_us = median_us(2_000, 2_000, BUDGET, || {
        wire_failed |= client.ping().is_err()
    });
    let id = client
        .prepare(&doc, WIRE_PROBE_QUERY, None)
        .map_err(|e| e.to_string())?;
    let wire_us = median_us(2_000, 2_000, BUDGET, || {
        wire_failed |= client.exec_prepared(id).is_err();
    });
    if wire_failed {
        return Err("wire probe: a request failed".into());
    }
    let prepared = db
        .prepare(&doc, WIRE_PROBE_QUERY, ENGINE)
        .map_err(|e| e.to_string())?;
    let embedded_us = median_us(2_000, 2_000, BUDGET, || {
        black_box(prepared.execute().map(|r| r.to_xml()).ok());
    });
    let _ = client.close();

    // xq, optimizer, physical: the workload's own statements.
    let read_back = [Statement {
        name: "read-back".to_string(),
        doc: doc.clone(),
        text: INGEST_QUERY.to_string(),
        expected: None,
    }];
    let statements = if bench.statements.is_empty() {
        &read_back[..]
    } else {
        &bench.statements[..]
    };
    let mut per_statement = Vec::new();
    for st in statements {
        let parse_us = median_us(5, 200, BUDGET, || {
            black_box(xmldb_xq::parse(black_box(&st.text)).ok());
        });
        let prepare_us = median_us(5, 200, BUDGET, || {
            black_box(db.prepare(&st.doc, &st.text, ENGINE).ok());
        });
        let prepared = db
            .prepare(&st.doc, &st.text, ENGINE)
            .map_err(|e| e.to_string())?;
        let execute_us = median_us(5, 200, BUDGET, || {
            black_box(prepared.execute().ok());
        });
        per_statement.push(StatementProbe {
            name: st.name.clone(),
            parse_us,
            // `Database::prepare` parses too; what is left is the algebra
            // compile and the plan.
            prepare_us: (prepare_us - parse_us).max(0.0),
            execute_us,
        });
    }

    // xasr and storage: point gets on seeded keys, one label scan.
    let store = db.store(&doc).map_err(|e| e.to_string())?;
    let step = (store.node_count() as usize / 4096).max(1);
    let mut keys: Vec<u64> = store
        .scan_all()
        .step_by(step)
        .filter_map(|t| t.ok().map(|t| t.in_))
        .collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    let per_key_ns = |batch_us: f64| batch_us * 1e3 / keys.len() as f64;
    let xasr_get_ns = per_key_ns(median_us(5, 5, BUDGET, || {
        for &k in &keys {
            black_box(store.get(k).ok());
        }
    }));
    let tree = BTree::open(db.env(), &xmldb_xasr::store::file_names(&doc).clustered)
        .map_err(|e| e.to_string())?;
    let encoded: Vec<Vec<u8>> = keys.iter().map(|&k| NodeTuple::clustered_key(k)).collect();
    let btree_get_ns = per_key_ns(median_us(5, 5, BUDGET, || {
        for k in &encoded {
            black_box(tree.get(k).ok());
        }
    }));
    let rows = store.by_label(SCAN_LABEL).count().max(1);
    let label_scan_ns_per_row = median_us(5, 5, BUDGET, || {
        black_box(store.by_label(SCAN_LABEL).count());
    }) * 1e3
        / rows as f64;

    // xasr and xml on the load path: the document's text, from scratch.
    let megabytes = xml.len() as f64 / 1e6;
    let shred_us = median_us(3, 3, BUDGET, || {
        black_box(xmldb_xasr::shred_document(&Env::memory(), "probe", &xml).ok());
    });
    let parse_us = median_us(3, 3, BUDGET, || {
        black_box(xmldb_xml::parse(&xml).ok());
    });

    Ok(Probes {
        ping_rtt_us,
        wire_share: 1.0 - embedded_us / wire_us,
        statements: per_statement,
        xasr_get_ns,
        label_scan_ns_per_row,
        btree_get_ns,
        shred_mb_s: megabytes / (shred_us / 1e6),
        xml_parse_mb_s: megabytes / (parse_us / 1e6),
    })
}
