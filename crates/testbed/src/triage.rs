//! Differential-engine triage: find, shrink, and report oracle mismatches.
//!
//! The course's submission&test system only *detected* wrong answers; the
//! hard part was always figuring out *why* an engine disagreed with the
//! milestone-1 reference. This module closes that gap:
//!
//! 1. run every engine against the M1 in-memory oracle over the semantics
//!    corpus plus a battery of small generated documents,
//! 2. greedily shrink each mismatching document to a (locally) minimal one
//!    that still reproduces the disagreement,
//! 3. render a triage report carrying the minimal document, the query,
//!    every engine's output on the minimal case, and the mismatching
//!    engine's `EXPLAIN ANALYZE` trace — the executed plan with actual row
//!    counts is usually enough to spot the mis-planned operator.
//!
//! The comparison mirrors [`crate::runner`]'s judge: the plan-dependent
//! non-text-comparison error (like SQL's division-by-zero, it may or may
//! not be reached depending on evaluation order) counts as agreement in
//! either direction; any other error divergence is a mismatch.

use crate::corpus::{correctness_queries, Corpus};
use xmldb_core::{Database, EngineKind};
use xmldb_xml::{Document, NodeId, NodeKind};

/// Outcome of running one engine on one (document, query) case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineRun {
    /// Canonical serialization of the result.
    Output(String),
    /// The tolerated plan-dependent non-text-comparison error.
    NonTextComparison,
    /// Any other runtime error (message).
    Error(String),
}

impl EngineRun {
    /// One-line rendering for reports.
    pub fn describe(&self) -> String {
        match self {
            EngineRun::Output(xml) if xml.is_empty() => "ok: (empty)".to_string(),
            EngineRun::Output(xml) => format!("ok: {xml}"),
            EngineRun::NonTextComparison => "error: non-text comparison (tolerated)".to_string(),
            EngineRun::Error(e) => format!("error: {e}"),
        }
    }
}

/// A function that evaluates `query` over the single document `xml` with
/// the given engine. The production implementation is [`run_engine`]; tests
/// inject broken runners to exercise the shrinker.
pub type Runner<'a> = &'a dyn Fn(&str, &str, EngineKind) -> EngineRun;

/// Evaluates `query` over `xml` (loaded fresh into an in-memory database)
/// with `engine`.
pub fn run_engine(xml: &str, query: &str, engine: EngineKind) -> EngineRun {
    let db = Database::in_memory();
    if let Err(e) = db.load_document("doc", xml) {
        return EngineRun::Error(format!("load failed: {e}"));
    }
    match db.query("doc", query, engine) {
        Ok(result) => EngineRun::Output(result.to_xml()),
        Err(e) if e.is_non_text_comparison() => EngineRun::NonTextComparison,
        Err(e) => EngineRun::Error(e.to_string()),
    }
}

/// True when the engine run agrees with the oracle run under the judge's
/// tolerance rule (see module docs).
pub fn agrees(oracle: &EngineRun, engine: &EngineRun) -> bool {
    match (oracle, engine) {
        (EngineRun::Output(a), EngineRun::Output(b)) => a == b,
        (_, EngineRun::NonTextComparison) => true,
        (EngineRun::NonTextComparison, EngineRun::Output(_)) => true,
        _ => false,
    }
}

/// A shrunk, fully-described oracle disagreement.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The engine that disagreed with the oracle.
    pub engine: EngineKind,
    /// Name of the corpus document the mismatch was found on.
    pub source: String,
    /// The shrunk (locally minimal) document still reproducing it.
    pub document: String,
    /// The query.
    pub query: String,
    /// The oracle's run on the shrunk document.
    pub expected: EngineRun,
    /// The mismatching engine's run on the shrunk document.
    pub got: EngineRun,
    /// Every engine's run on the shrunk document (cross-engine context:
    /// does exactly one engine disagree, or a whole engine family?).
    pub outputs: Vec<(EngineKind, EngineRun)>,
    /// The mismatching engine's EXPLAIN ANALYZE trace on the shrunk
    /// document (empty when produced by an injected test runner).
    pub analyze: String,
}

impl Mismatch {
    /// Renders the triage report for one mismatch.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "MISMATCH engine={} source={}\n  query:    {}\n  document: {}\n  expected  {}\n  got       {}\n",
            self.engine,
            self.source,
            self.query,
            self.document,
            self.expected.describe(),
            self.got.describe(),
        ));
        out.push_str("  all engines on the shrunk case:\n");
        for (engine, run) in &self.outputs {
            out.push_str(&format!("    {:<14} {}\n", engine.name(), run.describe()));
        }
        if !self.analyze.is_empty() {
            out.push_str("  explain analyze:\n");
            for line in self.analyze.lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }
}

/// Result of a triage sweep.
#[derive(Debug, Clone, Default)]
pub struct TriageSummary {
    /// Number of (document, query, engine) cases executed.
    pub cases: usize,
    /// The shrunk mismatches (empty when all engines agree with M1).
    pub mismatches: Vec<Mismatch>,
}

impl TriageSummary {
    /// True when every engine agreed with the oracle on every case.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Renders the sweep report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "triage: {} cases, {} mismatch(es)\n",
            self.cases,
            self.mismatches.len()
        );
        for m in &self.mismatches {
            out.push_str(&m.render());
        }
        out
    }
}

/// Triages one (document, query) case with an injected runner: every
/// non-oracle engine is diffed against M1; disagreements are shrunk. No
/// analyze traces are collected (the runner is opaque).
pub fn triage_query_with(
    source: &str,
    xml: &str,
    query: &str,
    runner: Runner<'_>,
) -> Vec<Mismatch> {
    let oracle = runner(xml, query, EngineKind::M1InMemory);
    let mut mismatches = Vec::new();
    for engine in EngineKind::ALL {
        if engine == EngineKind::M1InMemory {
            continue;
        }
        let got = runner(xml, query, engine);
        if agrees(&oracle, &got) {
            continue;
        }
        let shrunk = shrink_document(xml, query, engine, runner);
        let expected = runner(&shrunk, query, EngineKind::M1InMemory);
        let got = runner(&shrunk, query, engine);
        let outputs = EngineKind::ALL
            .iter()
            .map(|&e| (e, runner(&shrunk, query, e)))
            .collect();
        mismatches.push(Mismatch {
            engine,
            source: source.to_string(),
            document: shrunk,
            query: query.to_string(),
            expected,
            got,
            outputs,
            analyze: String::new(),
        });
    }
    mismatches
}

/// Triages one (document, query) case with the real engines, attaching the
/// mismatching engine's EXPLAIN ANALYZE trace on the shrunk document.
pub fn triage_query(source: &str, xml: &str, query: &str) -> Vec<Mismatch> {
    let mut mismatches = triage_query_with(source, xml, query, &run_engine);
    for m in &mut mismatches {
        m.analyze = analyze_trace(&m.document, &m.query, m.engine);
    }
    mismatches
}

fn analyze_trace(xml: &str, query: &str, engine: EngineKind) -> String {
    let db = Database::in_memory();
    if db.load_document("doc", xml).is_err() {
        return String::new();
    }
    db.explain_analyze("doc", query, engine)
        .unwrap_or_else(|e| format!("explain analyze failed: {e}"))
}

/// Sweeps the correctness documents of `corpus` plus `generated` extra
/// documents with all 16 correctness queries across every engine.
pub fn triage_corpus(corpus: &Corpus, generated: usize) -> TriageSummary {
    let mut documents: Vec<(String, String)> = corpus
        .correctness_documents()
        .iter()
        .map(|name| {
            let xml = &corpus.documents.iter().find(|(n, _)| n == name).unwrap().1;
            (name.to_string(), xml.clone())
        })
        .collect();
    for (i, xml) in generated_documents(generated, 0x5eed)
        .into_iter()
        .enumerate()
    {
        documents.push((format!("gen-{i:02}"), xml));
    }

    let mut summary = TriageSummary::default();
    for (name, xml) in &documents {
        for (_, query) in correctness_queries() {
            summary.cases += EngineKind::ALL.len() - 1;
            summary.mismatches.extend(triage_query(name, xml, query));
        }
    }
    summary
}

/// Greedily shrinks `xml` to a locally minimal document on which `engine`
/// still disagrees with the oracle: repeatedly tries deleting one subtree
/// (bottom-up, largest candidates first by virtue of document order) and
/// keeps any deletion that preserves the disagreement, until no single
/// deletion does.
pub fn shrink_document(xml: &str, query: &str, engine: EngineKind, runner: Runner<'_>) -> String {
    let still_fails = |candidate: &str| -> bool {
        let oracle = runner(candidate, query, EngineKind::M1InMemory);
        let got = runner(candidate, query, engine);
        !agrees(&oracle, &got)
    };

    let Ok(mut doc) = xmldb_xml::parse(xml) else {
        return xml.to_string();
    };
    loop {
        let mut shrunk = None;
        // Candidates: every node strictly below the root element (removing
        // the root element itself would leave an invalid document).
        let candidates: Vec<NodeId> = match doc.root_element() {
            Some(root) => doc.descendants(root).filter(|&id| id != root).collect(),
            None => Vec::new(),
        };
        for target in candidates {
            let candidate = without_subtree(&doc, target);
            let serialized = xmldb_xml::serialize_document(&candidate);
            if still_fails(&serialized) {
                shrunk = Some(candidate);
                break;
            }
        }
        match shrunk {
            Some(smaller) => doc = smaller,
            None => return xmldb_xml::serialize_document(&doc),
        }
    }
}

/// A copy of `doc` with the subtree rooted at `skip` removed.
fn without_subtree(doc: &Document, skip: NodeId) -> Document {
    let mut out = Document::new();
    let out_root = out.root();
    copy_except(doc, doc.root(), &mut out, out_root, skip);
    out
}

fn copy_except(
    src: &Document,
    parent: NodeId,
    dst: &mut Document,
    dst_parent: NodeId,
    skip: NodeId,
) {
    for &child in src.children(parent) {
        if child == skip {
            continue;
        }
        match src.kind(child) {
            NodeKind::Element => {
                let id = dst.add_element_with_attrs(
                    dst_parent,
                    src.name(child).to_string(),
                    src.attrs(child).to_vec(),
                );
                copy_except(src, child, dst, id, skip);
            }
            _ => {
                dst.add_text(dst_parent, src.value(child));
            }
        }
    }
}

/// Deterministic small random documents (xorshift-based LCG; no external
/// randomness so triage runs are reproducible). The label vocabulary
/// overlaps the correctness queries' labels so axis steps, joins and
/// fallback conditions all get exercised on irregular shapes.
pub fn generated_documents(count: usize, seed: u64) -> Vec<String> {
    const LABELS: &[&str] = &[
        "journal", "name", "author", "title", "volume", "S", "NN", "deepest", "item",
    ];
    const TEXTS: &[&str] = &["Ana", "Bob", "DB", "x", ""];
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    if state == 0 {
        state = 1;
    }
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let mut doc = Document::new();
            let root = doc.root();
            let top = doc.add_element(root, LABELS[(next() % 3) as usize]);
            let nodes = 3 + (next() % 12) as usize;
            let mut parents = vec![top];
            for _ in 0..nodes {
                let parent = parents[(next() as usize) % parents.len()];
                if next() % 4 == 0 {
                    let text = TEXTS[(next() as usize) % TEXTS.len()];
                    if !text.is_empty() {
                        doc.add_text(parent, text);
                    }
                } else {
                    let label = LABELS[(next() as usize) % LABELS.len()];
                    let id = doc.add_element(parent, label);
                    parents.push(id);
                }
            }
            xmldb_xml::serialize_document(&doc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn tiny_corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            dblp_scale: 0.05,
            excerpt_scale: 0.02,
            treebank_scale: 0.05,
        })
    }

    #[test]
    fn corpus_sweep_has_zero_mismatches() {
        let summary = triage_corpus(&tiny_corpus(), 8);
        assert!(summary.cases > 0);
        assert!(
            summary.is_clean(),
            "triage found mismatches:\n{}",
            summary.render()
        );
    }

    #[test]
    fn shrinker_finds_minimal_witness() {
        // Inject a "bug": M4CostBased pretends every document containing a
        // <c/> element under <b> yields <bug/>. The minimal witness is the
        // root with just the b/c spine — the <d>x</d> sibling must go.
        let runner = |xml: &str, query: &str, engine: EngineKind| -> EngineRun {
            if engine == EngineKind::M4CostBased && xml.contains("<c") {
                return EngineRun::Output("<bug/>".to_string());
            }
            run_engine(xml, query, engine)
        };
        let mismatches = triage_query_with("test", "<a><b><c/></b><d>x</d></a>", "()", &runner);
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        let m = &mismatches[0];
        assert_eq!(m.engine, EngineKind::M4CostBased);
        assert_eq!(m.document, "<a><b><c/></b></a>");
        assert_eq!(m.expected, EngineRun::Output(String::new()));
        assert_eq!(m.got, EngineRun::Output("<bug/>".to_string()));
        assert_eq!(m.outputs.len(), EngineKind::ALL.len());
        let report = m.render();
        assert!(report.contains("MISMATCH engine=m4-costbased"));
        assert!(report.contains("<a><b><c/></b></a>"));
    }

    #[test]
    fn real_mismatch_carries_analyze_trace() {
        // Same injected bug, but through triage_query's plumbing: verify
        // the analyze trace of a real engine gets attached. We simulate by
        // calling analyze_trace directly (triage_query with real engines is
        // clean, as corpus_sweep_has_zero_mismatches shows).
        let trace = analyze_trace("<a><b/><b/></a>", "//b", EngineKind::M4CostBased);
        assert!(trace.contains("EXPLAIN ANALYZE"), "{trace}");
        assert!(trace.contains("actual rows="), "{trace}");
        assert!(trace.contains("buffer pool:"), "{trace}");
    }

    #[test]
    fn tolerance_mirrors_the_judge() {
        let ok = EngineRun::Output("<x/>".into());
        let ntc = EngineRun::NonTextComparison;
        let err = EngineRun::Error("boom".into());
        assert!(agrees(&ok, &ok.clone()));
        assert!(agrees(&ok, &ntc));
        assert!(agrees(&ntc, &ok));
        assert!(agrees(&ntc, &ntc.clone()));
        assert!(!agrees(&ok, &err));
        assert!(!agrees(&err, &ok));
        assert!(!agrees(&ok, &EngineRun::Output("<y/>".into())));
    }

    #[test]
    fn generated_documents_are_deterministic_and_wellformed() {
        let a = generated_documents(6, 42);
        let b = generated_documents(6, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        for xml in &a {
            xmldb_xml::parse(xml).expect("generated document must parse");
        }
        // Different seeds give different documents.
        assert_ne!(a, generated_documents(6, 43));
    }
}
