//! Snapshot tests for the paper's plan figures: the TPM expressions of
//! Figures 3–5 and the Figure 6 QP2 physical plan.

use xmldb_algebra::compile_query;
use xmldb_algebra::rewrite::{optimize, RewriteOptions};
use xmldb_core::{Database, EngineKind};
use xmldb_xq::parse;

const EXAMPLE2: &str = "<names>{ for $j in /journal return for $n in $j//name return $n }</names>";

/// Figure 3: the un-merged TPM expression (two relfors; the descendant
/// step carries its own copy of the binding relation).
#[test]
fn figure3_snapshot() {
    let tpm = compile_query(&parse(EXAMPLE2).unwrap());
    assert_eq!(
        tpm.render(),
        "constr(names)\n\
         \x20 relfor ($j) in π(J.in) σ[J.parent_in = $root ∧ J.type = element ∧ J.value = journal] ×(XASR[J])\n\
         \x20   relfor ($n) in π(N2.in) σ[N.in = $j ∧ N.in < N2.in ∧ N2.out < N.out ∧ N2.type = element ∧ N2.value = name] ×(XASR[N], XASR[N2])\n\
         \x20     $n\n"
    );
}

/// Figure 4: after merging, one relfor over (J, N2); the redundant copy N
/// (the paper's N1) is dropped because N1.in = $j = J.in.
#[test]
fn figure4_snapshot() {
    let tpm = optimize(
        compile_query(&parse(EXAMPLE2).unwrap()),
        &RewriteOptions::default(),
    );
    assert_eq!(
        tpm.render(),
        "constr(names)\n\
         \x20 relfor ($j, $n) in π(J.in, N2.in) σ[J.parent_in = $root ∧ J.type = element ∧ J.value = journal ∧ J.in < N2.in ∧ N2.out < J.out ∧ N2.type = element ∧ N2.value = name] ×(XASR[J], XASR[N2])\n\
         \x20   $n\n"
    );
}

const EXAMPLE5: &str = "<names>{ for $j in /journal return \
     if (some $t in $j//text() satisfies true()) \
     then for $n in $j//name return $n else () }</names>";

/// Figure 5: the if/some condition becomes a nullary relfor between the
/// loops (shown unmerged, as in the figure).
#[test]
fn figure5_snapshot() {
    let tpm = compile_query(&parse(EXAMPLE5).unwrap());
    let rendered = tpm.render();
    // Outer loop over journals, nullary relfor with the two text relations,
    // inner loop over names.
    assert!(rendered.contains("relfor ($j)"), "{rendered}");
    assert!(rendered.contains("relfor () in π()"), "{rendered}");
    assert!(rendered.contains("×(XASR[T], XASR[T2])"), "{rendered}");
    assert!(rendered.contains("relfor ($n)"), "{rendered}");
}

/// After merging, Example 5's three relfors are one, with the text witness
/// as an unprojected relation — the configuration that makes duplicate
/// elimination necessary (the §2 ordering discussion).
#[test]
fn figure5_merged_needs_dedup() {
    let tpm = optimize(
        compile_query(&parse(EXAMPLE5).unwrap()),
        &RewriteOptions::default(),
    );
    assert_eq!(tpm.relfor_count(), 1, "{}", tpm.render());
    let xmldb_algebra::Tpm::Constr { content, .. } = &tpm else {
        panic!()
    };
    let xmldb_algebra::Tpm::RelFor { source, .. } = content.as_ref() else {
        panic!()
    };
    assert!(
        xmldb_algebra::ordering::needs_dedup(source),
        "{}",
        tpm.render()
    );
}

const EXAMPLE6: &str = "for $x in //article return \
     if (some $v in $x/volume satisfies true()) \
     then for $y in $x//author return $y else ()";

/// Figure 6 / plan QP2 on an Example 6-shaped document ("many authors and
/// few articles that have information on volumes"): the milestone 4 plan
/// must (1) check volumes before expanding authors, (2) realize the
/// volume check as a semijoin (dedup projection), and (3) use index
/// nested-loops joins — all order-preserving, no sort.
#[test]
fn figure6_qp2_plan() {
    let db = Database::in_memory();
    let mut xml = String::from("<dblp>");
    for i in 0..60 {
        xml.push_str("<article>");
        if i % 12 == 0 {
            xml.push_str("<volume>9</volume>");
        }
        for a in 0..6 {
            xml.push_str(&format!("<author>a{i}-{a}</author>"));
        }
        xml.push_str("</article>");
    }
    xml.push_str("</dblp>");
    db.load_document("dblp", &xml).unwrap();
    let explain = db
        .explain("dblp", EXAMPLE6, EngineKind::M4CostBased)
        .unwrap();
    // Two index nested-loops joins.
    assert_eq!(explain.matches("inl-join").count(), 2, "{explain}");
    // The volume semijoin happens before the author expansion: in the
    // rendered plan (top-down), the author probe is above the volume probe.
    let author_pos = explain.find("label=author").expect("author probe");
    let volume_pos = explain.find("label=volume").expect("volume probe");
    assert!(
        author_pos < volume_pos,
        "authors must join last:\n{explain}"
    );
    // Order-preserving: no sort operator.
    assert!(!explain.contains("sort keys"), "{explain}");
    // Semijoin: a dedup projection between the joins (two projections
    // total, both dedup).
    assert!(explain.matches("dedup=true").count() >= 2, "{explain}");
}

/// The milestone 3 heuristic plan for the same query keeps the syntactic
/// join order (authors expanded before volumes are checked) — the QP0/QP1
/// flavour the paper improves upon.
#[test]
fn example6_heuristic_plan_is_less_clever() {
    let db = Database::in_memory();
    db.load_document(
        "dblp",
        "<dblp><article><author>a</author><volume>1</volume></article></dblp>",
    )
    .unwrap();
    let explain = db
        .explain("dblp", EXAMPLE6, EngineKind::M3Algebraic)
        .unwrap();
    // No index joins in milestone 3.
    assert_eq!(explain.matches("inl-join").count(), 0, "{explain}");
    assert!(explain.contains("nl-join"), "{explain}");
    // Full scans with pushed-down selections.
    assert!(explain.contains("full-scan"), "{explain}");
    assert!(explain.contains("materialize"), "{explain}");
}

/// The paper's proposed left-outer-join extension: on the milestone-4
/// engines, the constructor-blocked shape plans as a single outer-joined
/// stream ("one solution to this problem is to extend TPM by
/// left-outer-joins"); milestone 3 stays unmerged.
#[test]
fn left_outer_join_extension_plan() {
    let db = Database::in_memory();
    db.load_document(
        "lib",
        "<lib><journal><name>Ana</name></journal><journal><title>t</title></journal></lib>",
    )
    .unwrap();
    let q = "<names>{ for $j in //journal return <j>{ for $n in $j//name return $n }</j> }</names>";
    let m4 = db.explain("lib", q, EngineKind::M4CostBased).unwrap();
    assert!(m4.contains("relfor-outer"), "{m4}");
    assert!(m4.contains("left-outer-inl-join"), "{m4}");
    let m3 = db.explain("lib", q, EngineKind::M3Algebraic).unwrap();
    assert!(!m3.contains("relfor-outer"), "{m3}");
    // And the semantics include the empty element.
    assert_eq!(
        db.query("lib", q, EngineKind::M4CostBased)
            .unwrap()
            .to_xml(),
        "<names><j><name>Ana</name></j><j/></names>"
    );
}

/// EXPLAIN for every engine mentions its strategy.
#[test]
fn explain_covers_all_engines() {
    let db = Database::in_memory();
    db.load_document("d", "<a><b>x</b></a>").unwrap();
    for engine in EngineKind::ALL {
        let text = db.explain("d", "//b", engine).unwrap();
        assert!(!text.is_empty(), "{engine} explain empty");
    }
}

/// The plan engines whose EXPLAIN the goldens below pin down.
const PLAN_ENGINES: [EngineKind; 3] = [
    EngineKind::M3Algebraic,
    EngineKind::M4CostBased,
    EngineKind::M4Pipelined,
];

/// The testbed corpus loaded into one database: every correctness document
/// with the 16 correctness queries, the big `dblp` with the five
/// efficiency queries.
fn corpus_cases() -> (Database, Vec<(String, &'static str, &'static str)>) {
    use xmldb_testbed::corpus::{correctness_queries, efficiency_queries, Corpus, CorpusConfig};
    let corpus = Corpus::generate(&CorpusConfig::default());
    let db = Database::in_memory();
    let mut cases = Vec::new();
    for (doc, xml) in &corpus.documents {
        db.load_document(doc, xml).unwrap();
        let queries = if doc == "dblp" {
            efficiency_queries()
        } else {
            correctness_queries()
        };
        for (name, query) in queries {
            cases.push((doc.clone(), name, query));
        }
    }
    (db, cases)
}

/// The single join operator must plan, name and cost exactly what the five
/// join structs it replaced did. `tests/golden/corpus_plans.tsv` was
/// written by the commit *before* the replacement: one line per corpus
/// (document, query, engine) with the FNV-1a of the full EXPLAIN text and
/// the executed program's plan digest (`Plan::digest` per relfor, folded;
/// `-` for the big `dblp`, whose queries are only planned here, not run).
/// EXPLAIN text, and with it every estimate and every `nl-join` /
/// `inl-join` / `bnl-join block=…` / `left-outer-…` name derived from the
/// join's parameters, must not have moved by a byte.
#[test]
fn corpus_explain_and_digests_match_golden() {
    let golden = include_str!("golden/corpus_plans.tsv");
    let (db, cases) = corpus_cases();
    let mut lines = golden.lines();
    for (doc, name, query) in &cases {
        for engine in PLAN_ENGINES {
            let text = db.explain(doc, query, engine).unwrap();
            let digest = (doc != "dblp")
                .then(|| db.query(doc, query, engine).ok())
                .flatten()
                .and_then(|r| r.metrics().and_then(|m| m.plan_digest))
                .map_or("-".to_string(), |d| format!("{d:016x}"));
            let line = format!(
                "{doc}\t{name}\t{engine}\t{:016x}\t{digest}",
                xmldb_obs::fnv1a(text.as_bytes())
            );
            assert_eq!(
                Some(line.as_str()),
                lines.next(),
                "EXPLAIN or plan digest moved for {doc} {name} {engine}; EXPLAIN is now:\n{text}"
            );
        }
    }
    assert_eq!(lines.next(), None, "golden has cases the corpus lost");
}

/// Full EXPLAIN text (same provenance as the digests above) for one plan
/// per join name, so the names and their `probe=` / `block=` details are
/// readable in the golden itself.
#[test]
fn every_join_name_renders_as_before() {
    let golden = include_str!("golden/join_names.explain");
    let (db, cases) = corpus_cases();
    let engine_named = |name: &str| {
        PLAN_ENGINES
            .into_iter()
            .find(|e| e.name() == name)
            .unwrap_or_else(|| panic!("unknown engine {name}"))
    };
    let mut seen = Vec::new();
    for section in golden.split("### ").skip(1) {
        let (header, expected) = section.split_once('\n').unwrap();
        let [doc, name, engine] = header.split(' ').collect::<Vec<_>>()[..] else {
            panic!("malformed golden header {header:?}")
        };
        // The corpus has no left-outer join over a re-scanned right side;
        // this query (an inner loop unrelated to the outer one, under a
        // constructor) plans as one.
        let query = match name {
            "outer-nl" => "for $n in //name return <n>{ for $t in //title return $t }</n>",
            _ => {
                cases
                    .iter()
                    .find(|(d, n, _)| d == doc && *n == name)
                    .unwrap_or_else(|| panic!("no corpus case {doc} {name}"))
                    .2
            }
        };
        let text = db.explain(doc, query, engine_named(engine)).unwrap();
        assert_eq!(text, expected, "{header}");
        seen.extend(
            [
                "left-outer-inl-join",
                "left-outer-nl-join",
                "bnl-join block=1024",
                " inl-join",
                " nl-join",
            ]
            .into_iter()
            .filter(|n| text.contains(n)),
        );
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 5, "a join name is not covered: {seen:?}");
}
