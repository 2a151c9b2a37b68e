//! Batch-size invariance of *planned* queries, and laziness under `limit`.
//!
//! `crates/physical/tests/batch_invariance.rs` sweeps hand-built operator
//! trees; here the trees are the ones the planners build for the testbed
//! corpus. Every relfor plan of every corpus query — the nested ones
//! re-planned under the bindings of their enclosing relfor's first row —
//! must deliver the same rows in the same order whether its consumer asks
//! for 1, 2, 7 or 1024 rows at a time.

use xmldb_algebra::rewrite::{optimize, RewriteOptions};
use xmldb_algebra::{compile_query, Tpm};
use xmldb_core::{Database, EngineKind};
use xmldb_optimizer::{plan_outer_join, plan_psx, CostModel, Plan, PlanMetrics, PlannerConfig};
use xmldb_physical::{Bindings, ExecContext, Row};
use xmldb_testbed::corpus::{correctness_queries, efficiency_queries, Corpus, CorpusConfig};
use xmldb_xasr::XasrStore;

/// `plan`'s rows when pulled `max_rows` at a time.
fn drain(plan: &Plan, ctx: &ExecContext<'_>, max_rows: usize) -> Result<Vec<Row>, String> {
    let mut op = plan.instantiate(None);
    op.open(ctx).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    loop {
        let batch = op.next_batch(ctx, max_rows).map_err(|e| e.to_string())?;
        if batch.is_empty() {
            break;
        }
        assert!(batch.len() <= max_rows, "{}", plan.explain());
        rows.extend(batch.iter().map(|r| r.to_vec()));
    }
    op.close();
    Ok(rows)
}

/// Checks every relfor plan under `tpm`, returning how many it checked.
fn check(
    tpm: &Tpm,
    store: &XasrStore,
    bindings: &Bindings,
    config: &PlannerConfig,
    what: &str,
) -> usize {
    let model = CostModel::from_store(store);
    let (plan, vars, body) = match tpm {
        Tpm::Empty | Tpm::Text(_) | Tpm::VarOut(_) => return 0,
        Tpm::Concat(parts) => {
            return parts
                .iter()
                .map(|p| check(p, store, bindings, config, what))
                .sum()
        }
        Tpm::Constr { content: body, .. } | Tpm::IfFallback { body, .. } => {
            return check(body, store, bindings, config, what)
        }
        Tpm::RelFor { vars, source, body } => {
            (plan_psx(source, &model, config), vars.clone(), body)
        }
        Tpm::RelForOuter {
            outer_vars,
            outer_source,
            inner_var,
            inner_source,
            body,
            ..
        } => {
            let plan = plan_outer_join(outer_source, inner_source, &model, config);
            let vars = outer_vars.iter().chain([inner_var]).cloned().collect();
            (plan, vars, body)
        }
    };
    let ctx = ExecContext::new(store, bindings);
    // A runtime error (the strict-comparison one) is an outcome like any
    // other: every batch size must raise it, or none.
    let reference = drain(&plan, &ctx, 1024);
    for max_rows in [1, 2, 7] {
        assert_eq!(
            drain(&plan, &ctx, max_rows),
            reference,
            "{what} at max_rows = {max_rows}:\n{}",
            plan.explain()
        );
    }
    // Descend with the first binding that has no NULL-padded column.
    let first = reference
        .ok()
        .and_then(|rows| rows.into_iter().find(|r| r.iter().all(|t| !t.is_null())));
    let nested = first.map_or(0, |row| {
        let mut inner = bindings.clone();
        for (var, tuple) in vars.into_iter().zip(row) {
            inner.bind(var, tuple);
        }
        check(body, store, &inner, config, what)
    });
    1 + nested
}

#[test]
fn planned_corpus_queries_are_batch_size_invariant() {
    let corpus = Corpus::generate(&CorpusConfig {
        treebank_scale: 0.3,
        ..CorpusConfig::default()
    });
    let db = Database::in_memory();
    let pipelined = PlannerConfig {
        materialize_right: false,
        ..PlannerConfig::cost_based()
    };
    let engines = [
        ("m3", PlannerConfig::heuristic(), RewriteOptions::default()),
        (
            "m4",
            PlannerConfig::cost_based(),
            RewriteOptions::extended(),
        ),
        ("m4p", pipelined, RewriteOptions::extended()),
    ];
    let mut plans = 0;
    for doc in corpus.correctness_documents() {
        let xml = &corpus.documents.iter().find(|(n, _)| n == doc).unwrap().1;
        db.load_document(doc, xml).unwrap();
        let store = db.store(doc).unwrap();
        let bindings = Bindings::with_root(&store).unwrap();
        for (name, query) in correctness_queries()
            .into_iter()
            .chain(efficiency_queries())
        {
            let expr = xmldb_xq::parse(query).unwrap();
            for (engine, config, rewrites) in &engines {
                let tpm = optimize(compile_query(&expr), rewrites);
                let what = format!("{doc} {name} {engine}");
                plans += check(&tpm, &store, &bindings, config, &what);
            }
        }
    }
    assert!(plans > 200, "only {plans} plans checked");
}

/// The operator lines of an EXPLAIN ANALYZE rendering as
/// `(name, actual rows, opens)`, top-down.
fn actuals(analyzed: &str) -> Vec<(String, u64, u64)> {
    let number = |line: &str, key: &str| -> u64 {
        let rest = &line[line.find(key).expect(key) + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().unwrap()
    };
    analyzed
        .lines()
        .filter(|l| l.contains("(actual rows="))
        .map(|l| {
            let name = l.trim_start_matches([' ', '|']).split(' ').next().unwrap();
            (
                name.to_string(),
                number(l, "actual rows="),
                number(l, "opens="),
            )
        })
        .collect()
}

/// Forty journals of fifty names each.
fn journals() -> Database {
    let mut xml = String::from("<lib>");
    for journal in 0..40 {
        xml.push_str("<journal>");
        for name in 0..50 {
            xml.push_str(&format!("<name>n{journal}-{name}</name>"));
        }
        xml.push_str("</journal>");
    }
    xml.push_str("</lib>");
    let db = Database::in_memory();
    db.load_document("d", &xml).unwrap();
    db
}

/// An exists check (`limit 1`) must not make the plan below it read ahead:
/// the scan under it reports as many `actual rows` as it takes to reach
/// the first match, not a batch frame's worth.
#[test]
fn scan_under_limit_stops_at_the_first_match() {
    let db = journals();

    // The condition sits under a constructor, so it stays a nullary relfor
    // of its own (not merged into the journal loop) and plans as
    // `project [] / limit 1 / scan`, re-opened once per journal.
    let first_name = "for $j in //journal return \
         <j>{ if (some $n in $j/name satisfies true()) then <has/> else () }</j>";
    let analyzed = db
        .explain_analyze("d", first_name, EngineKind::M4CostBased)
        .unwrap();
    let ops = actuals(&analyzed);
    let limit = ops.iter().position(|(name, ..)| name == "limit");
    let limit = limit.unwrap_or_else(|| panic!("no limit in plan:\n{analyzed}"));
    let (scan, rows, opens) = &ops[limit + 1];
    assert_eq!(scan, "scan", "{analyzed}");
    assert_eq!(*opens, 40, "one exists check per journal:\n{analyzed}");
    assert_eq!(
        rows, opens,
        "the first child matches, so each check reads one row:\n{analyzed}"
    );

    // A condition only the 30th name of journal 7 satisfies: the residual
    // predicate sits in the join above the scan of `$j`'s names, so the
    // scan is pulled one row at a time until a name passes. It must stop
    // at that name: all 50 names of the 39 other journals, 30 of journal 7.
    let thirtieth = "for $j in //journal return <j>{ if (some $n in $j/name/text() \
         satisfies $n = \"n7-29\") then <has/> else () }</j>";
    for engine in [EngineKind::M3Algebraic, EngineKind::M4CostBased] {
        let analyzed = db.explain_analyze("d", thirtieth, engine).unwrap();
        let ops = actuals(&analyzed);
        let limit = ops.iter().position(|(name, ..)| name == "limit");
        let limit = limit.unwrap_or_else(|| panic!("no limit in plan:\n{analyzed}"));
        assert_eq!(ops[limit].1, 1, "one journal has the name:\n{analyzed}");
        let names = ops[limit..].iter().find(|(name, ..)| name == "scan");
        let (_, rows, opens) = names.unwrap_or_else(|| panic!("no scan:\n{analyzed}"));
        assert_eq!((*rows, *opens), (39 * 50 + 30, 40), "{engine}:\n{analyzed}");
    }
}

/// The same for the right side of an `nl-join` that re-scans a bare scan
/// (no `materialize` in between): under `limit 1` the right scan stops at
/// the row that completes the first match.
#[test]
fn unmaterialized_right_scan_under_limit_stops_at_the_first_match() {
    let db = journals();
    let store = db.store("d").unwrap();
    let query = "if (some $n in //journal/name/text() satisfies $n = \"n0-2\") \
         then <has/> else ()";
    let tpm = compile_query(&xmldb_xq::parse(query).unwrap());
    let Tpm::RelFor { source, .. } = optimize(tpm, &RewriteOptions::default()) else {
        panic!("the exists check is one nullary relfor");
    };
    let config = PlannerConfig {
        materialize_right: false,
        ..PlannerConfig::heuristic()
    };
    let plan = plan_psx(&source, &CostModel::from_store(&store), &config);
    assert_eq!(plan.count_ops("nl-join"), 2, "{}", plan.explain());
    assert_eq!(plan.count_ops("materialize"), 0, "{}", plan.explain());

    let bindings = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &bindings);
    let mut metrics = PlanMetrics::new();
    let mut op = plan.instantiate(Some(&mut metrics));
    op.open(&ctx).unwrap();
    assert_eq!(op.next_batch(&ctx, 1024).unwrap().len(), 1);
    op.close();
    let analyzed = plan.explain_analyzed(&metrics);
    // journal ⋈ name ⋈ text, left-deep. The first journal's first three
    // names are tried: each re-opens the text scan, the first two read all
    // 2000 texts in vain, the third stops at its own text — the third one.
    let scans: Vec<_> = actuals(&analyzed)
        .into_iter()
        .filter(|(name, ..)| name == "scan")
        .map(|(_, rows, opens)| (rows, opens))
        .collect();
    assert_eq!(scans, [(1, 1), (3, 1), (2000 + 2000 + 3, 3)], "{analyzed}");
}
