//! The test corpus: documents and queries of §4.

use xmldb_datagen::{classroom_document, figure2_document, DblpConfig, TreebankConfig};

/// Scale configuration for the generated documents.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Scale factor of the big DBLP substitute (1.0 ≈ 0.150 MB; the
    /// paper's 250 MB corresponds to ≈ 1 663).
    pub dblp_scale: f64,
    /// Scale factor of the DBLP excerpt.
    pub excerpt_scale: f64,
    /// Scale factor of the TREEBANK substitute.
    pub treebank_scale: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            dblp_scale: 1.0,
            excerpt_scale: 0.1,
            treebank_scale: 1.0,
        }
    }
}

/// The four test documents plus the query sets.
pub struct Corpus {
    /// `(name, xml)` pairs: handmade, fig2, dblp-excerpt, dblp, treebank.
    pub documents: Vec<(String, String)>,
}

impl Corpus {
    /// Generates the corpus at the given scales.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        Corpus {
            documents: vec![
                ("handmade".to_string(), classroom_document()),
                ("fig2".to_string(), figure2_document().to_string()),
                (
                    "dblp-excerpt".to_string(),
                    xmldb_datagen::generate_dblp(&DblpConfig::scaled(config.excerpt_scale)),
                ),
                (
                    "dblp".to_string(),
                    xmldb_datagen::generate_dblp(&DblpConfig::scaled(config.dblp_scale)),
                ),
                (
                    "treebank".to_string(),
                    xmldb_datagen::generate_treebank(&TreebankConfig::scaled(
                        config.treebank_scale,
                    )),
                ),
            ],
        }
    }

    /// Document names used for correctness testing (everything but the big
    /// DBLP, which is reserved for the efficiency tests — "for each engine
    /// and milestone, the correctness tests used all aforementioned XML
    /// documents").
    pub fn correctness_documents(&self) -> Vec<&str> {
        self.documents
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| *n != "dblp")
            .collect()
    }
}

/// The public correctness queries: 16 queries covering "fairly all XQ
/// constructs and combinations of them". Each runs against every
/// correctness document (labels missing from a document simply produce
/// empty axis results).
pub fn correctness_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("q01-empty", "()"),
        ("q02-constructor", "<empty/>"),
        ("q03-root-element", "/*"),
        ("q04-descendant-label", "//name"),
        (
            "q05-child-star",
            "for $r in /* return <kids>{ $r/* }</kids>",
        ),
        ("q06-authors", "for $a in //author return $a"),
        (
            "q07-text-items",
            "for $x in /*/* return <item>{ $x/text() }</item>",
        ),
        ("q08-deep-label", "//deepest"),
        (
            "q09-example2",
            "<names>{ for $j in //journal return for $n in $j//name return $n }</names>",
        ),
        (
            "q10-if-some",
            "for $j in //journal return \
             if (some $t in $j//text() satisfies true()) then $j/title else ()",
        ),
        (
            "q11-eq-const",
            "for $n in //name/text() return if ($n = \"Ana\") then <ana/> else ()",
        ),
        (
            "q12-eq-var",
            "for $a in //name/text(), $b in //name/text() return \
             if ($a = $b) then <same/> else ()",
        ),
        (
            "q13-or-fallback",
            "for $j in //journal return \
             if ((some $v in $j/volume satisfies true()) \
                 or (some $n in $j//name satisfies true())) then <j/> else ()",
        ),
        (
            "q14-not-fallback",
            "for $j in //journal return \
             if (not(some $v in $j/volume satisfies true())) then <novolume/> else ()",
        ),
        ("q15-sequence-mixed", "<r><head/>{ //volume }<tail/></r>"),
        (
            "q16-deep-nesting",
            "for $s in //S return for $n in $s//NN return $n",
        ),
    ]
}

/// The five "secret" efficiency queries, engineered like the paper's: they
/// "admit query plans with costs varying by orders of magnitude" and
/// separate the optimized engines from the unoptimized ones. All run
/// against the big `dblp` document.
pub fn efficiency_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        // Test 1: Example 6 verbatim — the semijoin/ordering showcase.
        (
            "eff1-volumed-authors",
            "for $x in //article return \
             if (some $v in $x/volume satisfies true()) \
             then for $y in $x//author return $y else ()",
        ),
        // Test 2: join with a rare witness on the other publication kind.
        (
            "eff2-cited-titles",
            "for $x in //inproceedings return \
             if (some $c in $x/cite satisfies true()) then $x/title else ()",
        ),
        // Test 3: value join of a large relation against *all* text nodes
        // — quadratic for the per-binding interpreters (which re-scan the
        // document per outer binding), a single block join over a
        // materialized scan for the algebra engines. "Loops become joins."
        (
            "eff3-author-text-eq",
            "for $a in //author/text() return \
             for $t in //text() return \
             if ($a = $t) then <match/> else ()",
        ),
        // Test 4: non-existent label — near-zero for engines that consult
        // the statistics or the label index.
        (
            "eff4-ghost-label",
            "for $x in //phdthesis return $x//author",
        ),
        // Test 5: a three-relation structural join whose orders differ by
        // orders of magnitude: expanding authors before checking volumes
        // is catastrophic — the estimator trap that cost the paper's
        // engine 2 its total ("the very unselective join at the bottom of
        // the plan").
        (
            "eff5-order-trap",
            "for $x in //article return \
             for $a in $x//author return \
             if (some $v in $x/volume satisfies true()) then $a else ()",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generates_all_documents() {
        let corpus = Corpus::generate(&CorpusConfig {
            dblp_scale: 0.05,
            excerpt_scale: 0.02,
            treebank_scale: 0.05,
        });
        assert_eq!(corpus.documents.len(), 5);
        for (name, xml) in &corpus.documents {
            assert!(
                xmldb_xml_parse_ok(xml),
                "document {name} must be well-formed"
            );
        }
        assert_eq!(corpus.correctness_documents().len(), 4);
    }

    fn xmldb_xml_parse_ok(_xml: &str) -> bool {
        // The datagen crate already parses its outputs in its own tests;
        // here we only sanity-check the corpus plumbing.
        true
    }

    #[test]
    fn sixteen_correctness_queries_parse() {
        let queries = correctness_queries();
        assert_eq!(queries.len(), 16);
        for (name, q) in queries {
            xmldb_core_parse(q).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
        }
    }

    #[test]
    fn five_efficiency_queries_parse() {
        let queries = efficiency_queries();
        assert_eq!(queries.len(), 5);
        for (name, q) in queries {
            xmldb_core_parse(q).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
        }
    }

    fn xmldb_core_parse(q: &str) -> Result<(), String> {
        // Parse through the xq crate re-exported by core's dependency graph.
        match std::panic::catch_unwind(|| q.to_string()) {
            Ok(_) => {}
            Err(_) => return Err("panic".into()),
        }
        // Real parse via the core database (no document needed for parsing).
        xmldb_parse(q)
    }

    fn xmldb_parse(q: &str) -> Result<(), String> {
        // Use the M1 evaluator on a trivial doc to force a parse.
        match xmldb_core::engine::m1::evaluate_str("<x/>", q) {
            Ok(_) => Ok(()),
            Err(xmldb_core::Error::Query(e)) => Err(e.to_string()),
            Err(_) => Ok(()), // runtime errors are fine; we only test syntax
        }
    }
}
