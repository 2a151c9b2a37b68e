//! Batch-size invariance: an operator's output is a property of the
//! operator, not of how its consumer pulls it. For every operator (and
//! every parameterisation of the one join) the concatenation of
//! `next_batch(max_rows)` must be the same rows in the same order for
//! `max_rows ∈ {1, 2, 7, 1024}`, and no batch may exceed `max_rows`.
//!
//! At `max_rows = 1` every probe join answers each left row with its own
//! index probe; at 1024 the label probes merge-probe a window over the
//! whole left batch and text-equality probes read each distinct value
//! once — so the sweep also pins those candidate sources to each other.

use xmldb_algebra::{Attr, CmpOp};
use xmldb_physical::ops::{
    FilterOp, JoinInner, JoinOp, LimitOp, MaterializeOp, ProjectOp, RowsOp, ScanOp, SortOp, Src,
};
use xmldb_physical::{
    Bindings, ExecContext, Operator, PhysOperand, PhysPred, Probe, Row, RowBatch,
};
use xmldb_storage::{Env, Governor};
use xmldb_xasr::{shred_document, NodeTuple, NodeType, XasrStore};
use xmldb_xq::Var;

const SIZES: [usize; 4] = [1, 2, 7, 1024];

/// Name counts per journal: runs of match-less journals, journals with
/// more names than the small batch sizes, and everything in between.
const NAMES_PER_JOURNAL: [usize; 14] = [5, 0, 1, 0, 0, 2, 3, 0, 7, 1, 1, 0, 9, 2];

/// `<lib>` of journals; journal `i` has `NAMES_PER_JOURNAL[i]` `<name>`
/// children under an `<authors>` element and every third one a `<title>`.
/// Name texts repeat (`n0`..`n3`) so text probes find several nodes.
fn fixture() -> (Env, XasrStore) {
    let mut xml = String::from("<lib>");
    let mut serial = 0;
    for (i, names) in NAMES_PER_JOURNAL.iter().enumerate() {
        xml.push_str("<journal><authors>");
        for _ in 0..*names {
            xml.push_str(&format!("<name>n{}</name>", serial % 4));
            serial += 1;
        }
        xml.push_str("</authors>");
        if i % 3 == 0 {
            xml.push_str(&format!("<title>t{i}</title>"));
        }
        xml.push_str("</journal>");
    }
    xml.push_str("</lib>");
    let env = Env::memory();
    let store = shred_document(&env, "f", &xml).unwrap();
    (env, store)
}

/// Every batch `op` yields when pulled `max_rows` at a time.
fn batches(op: &mut dyn Operator, ctx: &ExecContext<'_>, max_rows: usize) -> Vec<RowBatch> {
    op.open(ctx).unwrap();
    let mut out = Vec::new();
    loop {
        let batch = op.next_batch(ctx, max_rows).unwrap();
        if batch.is_empty() {
            break;
        }
        assert!(
            batch.len() <= max_rows,
            "{}: batch of {} rows for max_rows {max_rows}",
            op.name(),
            batch.len()
        );
        out.push(batch);
    }
    op.close();
    out
}

fn rows(batches: &[RowBatch]) -> Vec<Row> {
    batches
        .iter()
        .flat_map(|b| b.iter().map(|r| r.to_vec()))
        .collect()
}

/// Builds a fresh operator tree.
type Make<'a> = dyn Fn() -> Box<dyn Operator> + 'a;

/// Runs a fresh `make()` at every batch size, asserts the outputs agree,
/// and returns the rows.
fn invariant(what: &str, ctx: &ExecContext<'_>, make: &Make) -> Vec<Row> {
    let reference = rows(&batches(make().as_mut(), ctx, 1024));
    for max_rows in SIZES {
        let mut op = make();
        let got = rows(&batches(op.as_mut(), ctx, max_rows));
        assert_eq!(got, reference, "{what} at max_rows = {max_rows}");
        // Re-opening restarts the operator, whatever it had buffered.
        let again = rows(&batches(op.as_mut(), ctx, max_rows));
        assert_eq!(
            again, reference,
            "{what} re-opened at max_rows = {max_rows}"
        );
    }
    reference
}

fn scan(probe: Probe) -> Box<dyn Operator> {
    Box::new(ScanOp::new(probe, vec![]))
}

fn by_label(label: &str) -> Box<dyn Operator> {
    scan(Probe::ByLabel(label.into()))
}

fn col(pos: usize, attr: Attr) -> PhysOperand {
    PhysOperand::Col { pos, attr }
}

fn pred(op: CmpOp, lhs: PhysOperand, rhs: PhysOperand) -> PhysPred {
    PhysPred {
        op,
        lhs,
        rhs,
        strict_text: false,
    }
}

/// `#left` is a proper ancestor of `#right`.
fn descendant_preds(left: usize, right: usize) -> Vec<PhysPred> {
    vec![
        pred(CmpOp::Lt, col(left, Attr::In), col(right, Attr::In)),
        pred(CmpOp::Lt, col(right, Attr::Out), col(left, Attr::Out)),
    ]
}

fn is_kind(pos: usize, kind: NodeType) -> PhysPred {
    pred(CmpOp::Eq, col(pos, Attr::Type), PhysOperand::Kind(kind))
}

fn probe_join(
    left: Box<dyn Operator>,
    probe: Probe,
    outer: bool,
    preds: Vec<PhysPred>,
) -> Box<dyn Operator> {
    Box::new(JoinOp::new(left, JoinInner::Probe(probe), outer, preds))
}

fn scan_join(
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    block_rows: usize,
    outer: bool,
    preds: Vec<PhysPred>,
) -> Box<dyn Operator> {
    let inner = JoinInner::Scan { right, block_rows };
    Box::new(JoinOp::new(left, inner, outer, preds))
}

fn ins(rows: &[Row]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|t| t.in_).collect())
        .collect()
}

#[test]
fn scans_of_every_probe() {
    let (_env, store) = fixture();
    let mut binds = Bindings::with_root(&store).unwrap();
    let lib = store.children(1).next().unwrap().unwrap();
    let journal = store.by_label("journal").next().unwrap().unwrap();
    let text = store.by_text("n1").next().unwrap().unwrap();
    binds.bind(Var::named("lib"), lib);
    binds.bind(Var::named("j"), journal);
    binds.bind(Var::named("t"), text);
    let ctx = ExecContext::new(&store, &binds);
    let ext = |name: &str| Src::Ext(Var::named(name));
    let probes = [
        Probe::Full,
        Probe::ByLabel("name".into()),
        Probe::ChildrenOf(ext("lib")),
        Probe::LabelChildrenOf("title".into(), ext("j")),
        Probe::DescendantsOf(ext("lib")),
        Probe::LabelDescendantsOf("name".into(), ext("lib")),
        Probe::Bound(ext("j")),
        Probe::ByTextEq("n2".into()),
        Probe::TextEqOf(ext("t")),
    ];
    for probe in probes {
        let got = invariant(&probe.describe(), &ctx, &|| scan(probe.clone()));
        assert!(!got.is_empty(), "{} found nothing", probe.describe());
    }
    // A pushed-down filter drops most of what each fetch returns.
    let filtered = invariant("filtered full scan", &ctx, &|| {
        Box::new(ScanOp::new(Probe::Full, vec![is_kind(0, NodeType::Text)]))
    });
    assert!(filtered.iter().all(|r| r[0].kind == NodeType::Text));
}

#[test]
fn unary_operators() {
    let (_env, store) = fixture();
    let binds = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &binds);

    invariant("singleton", &ctx, &|| Box::new(RowsOp::singleton()));
    let fixed: Vec<Row> = (1..=20u64)
        .map(|i| vec![store.get(i).unwrap().unwrap_or_else(NodeTuple::null)])
        .collect();
    assert_eq!(
        invariant("rows", &ctx, &|| Box::new(RowsOp::new(fixed.clone()))),
        fixed
    );
    let texts = invariant("filter", &ctx, &|| {
        Box::new(FilterOp::new(
            scan(Probe::Full),
            vec![is_kind(0, NodeType::Text)],
        ))
    });
    assert!(!texts.is_empty());
    for limit in [0, 1, 5, 2000] {
        let got = invariant("limit", &ctx, &|| {
            Box::new(LimitOp::new(scan(Probe::Full), limit))
        });
        assert_eq!(got.len(), limit.min(store.node_count() as usize));
    }
    // Reverse document order in, sorted out: the blocking operators
    // consume their input batch-wise and stream their result batch-wise.
    let reversed: Vec<Row> = texts.iter().rev().cloned().collect();
    let sorted = invariant("sort", &ctx, &|| {
        Box::new(SortOp::new(
            Box::new(RowsOp::new(reversed.clone())),
            vec![0],
        ))
    });
    assert_eq!(sorted, texts);
    let replayed = invariant("materialize", &ctx, &|| {
        Box::new(MaterializeOp::new(Box::new(RowsOp::new(reversed.clone()))))
    });
    assert_eq!(replayed, reversed);
}

/// `ProjectOp`'s one-pass dedup compares each row with the last row it
/// emitted, wherever the batch seams fall between them.
#[test]
fn project_dedups_across_batch_seams() {
    let (_env, store) = fixture();
    let binds = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &binds);
    // journal × its names, projected back to the journal: runs of 1..9
    // equal keys, so at max_rows 1, 2 and 7 runs straddle batch seams.
    let make = |dedup| -> Box<dyn Operator> {
        let join = probe_join(
            by_label("journal"),
            Probe::LabelDescendantsOf("name".into(), Src::Col(0)),
            false,
            vec![],
        );
        Box::new(ProjectOp::new(join, vec![0], dedup))
    };
    let all = invariant("project", &ctx, &|| make(false));
    let distinct = invariant("project dedup", &ctx, &|| make(true));
    assert_eq!(all.len(), NAMES_PER_JOURNAL.iter().sum::<usize>());
    assert_eq!(
        distinct.len(),
        NAMES_PER_JOURNAL.iter().filter(|n| **n > 0).count()
    );
    let mut expected = ins(&all);
    expected.dedup();
    assert_eq!(ins(&distinct), expected);
    // Projecting everything away with dedup is the exists check.
    let exists = invariant("nullary dedup", &ctx, &|| {
        Box::new(ProjectOp::new(by_label("name"), vec![], true))
    });
    assert_eq!(exists, vec![Row::new()]);
}

/// Inner and left-outer probe joins: merge-eligible label probes and the
/// probes that always run per row.
#[test]
fn probe_joins() {
    let (_env, store) = fixture();
    let binds = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &binds);
    let journals = NAMES_PER_JOURNAL.len();
    let names: usize = NAMES_PER_JOURNAL.iter().sum();
    let unmatched = NAMES_PER_JOURNAL.iter().filter(|n| **n == 0).count();

    for outer in [false, true] {
        let padding = if outer { unmatched } else { 0 };
        // Descendant label probe (merge-eligible): journal 12 has nine
        // names, so at max_rows 1, 2 and 7 its probe is resumed mid-row.
        let desc = invariant("journal//name", &ctx, &|| {
            probe_join(
                by_label("journal"),
                Probe::LabelDescendantsOf("name".into(), Src::Col(0)),
                outer,
                vec![],
            )
        });
        assert_eq!(desc.len(), names + padding);
        assert_eq!(desc.iter().filter(|r| r[1].is_null()).count(), padding);
        // The same pairs through the children label probe of `authors`,
        // the unlabeled children probe with a residual predicate, and the
        // nested-loops join over a re-scanned right side.
        let authors_names = invariant("authors/name", &ctx, &|| {
            probe_join(
                by_label("authors"),
                Probe::LabelChildrenOf("name".into(), Src::Col(0)),
                outer,
                vec![],
            )
        });
        let children = invariant("authors/* [element]", &ctx, &|| {
            probe_join(
                by_label("authors"),
                Probe::ChildrenOf(Src::Col(0)),
                outer,
                vec![is_kind(1, NodeType::Element)],
            )
        });
        assert_eq!(authors_names, children);
        let nested = invariant("journal × name", &ctx, &|| {
            scan_join(
                by_label("journal"),
                by_label("name"),
                1,
                outer,
                descendant_preds(0, 1),
            )
        });
        assert_eq!(nested, desc);
        assert_eq!(
            authors_names.iter().map(|r| r[1].in_).collect::<Vec<_>>(),
            desc.iter().map(|r| r[1].in_).collect::<Vec<_>>()
        );
    }
    // Title children: two thirds of the journals are padded.
    let titled = invariant("journal/title outer", &ctx, &|| {
        probe_join(
            by_label("journal"),
            Probe::LabelChildrenOf("title".into(), Src::Col(0)),
            true,
            vec![],
        )
    });
    assert_eq!(titled.len(), journals);
    // Text-equality and pinned probes keyed on a left column.
    let same_text = invariant("text-eq", &ctx, &|| {
        let name_texts = probe_join(
            by_label("name"),
            Probe::ChildrenOf(Src::Col(0)),
            false,
            vec![],
        );
        probe_join(name_texts, Probe::TextEqOf(Src::Col(1)), false, vec![])
    });
    assert!(
        same_text.len() > names,
        "texts repeat, so the join fans out"
    );
    let pinned = invariant("bound", &ctx, &|| {
        probe_join(by_label("name"), Probe::Bound(Src::Col(0)), false, vec![])
    });
    assert_eq!(pinned.len(), names);
}

/// The `(name, text)` rows of every name, in document order.
fn name_texts() -> Box<dyn Operator> {
    probe_join(
        by_label("name"),
        Probe::ChildrenOf(Src::Col(0)),
        false,
        vec![],
    )
}

/// Text-equality probes on a left column read each distinct value of a
/// batch once (value runs): the rows match per-row probes and a
/// nested-loops join at every batch size, and under a budget that refuses
/// the runs.
#[test]
fn value_runs_match_row_probes() {
    let (_env, store) = fixture();
    let binds = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &binds);
    let probed = || probe_join(name_texts(), Probe::TextEqOf(Src::Col(1)), false, vec![]);
    let runs = invariant("text-eq runs", &ctx, &probed);
    let nested = invariant("text = text", &ctx, &|| {
        let same_text = vec![
            is_kind(2, NodeType::Text),
            pred(CmpOp::Eq, col(1, Attr::Value), col(2, Attr::Value)),
        ];
        scan_join(name_texts(), scan(Probe::Full), 1, false, same_text)
    });
    assert_eq!(runs, nested);
    // Four distinct texts over 31 names: every row matches 7 or 8 texts.
    assert!(runs.len() > 7 * 31, "{} rows", runs.len());
    let tight = ExecContext::with_governor(&store, &binds, Governor::with_limits(None, Some(8)));
    assert_eq!(invariant("text-eq per row", &tight, &probed), runs);
}

/// A left batch mixing text and element rows raises the non-text error at
/// the first element row, at every batch size: the value runs skip the
/// element rows, whose own probes raise it when the join reaches them.
#[test]
fn value_runs_raise_non_text_at_the_same_row() {
    let (_env, store) = fixture();
    let binds = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &binds);
    let texts: Vec<NodeTuple> = store.by_text("n1").map(Result::unwrap).collect();
    let journal = store.by_label("journal").next().unwrap().unwrap();
    let title = store.by_label("title").next().unwrap().unwrap();
    let left: Vec<Row> = [&texts[0], &texts[1], &journal, &texts[2], &title]
        .into_iter()
        .map(|t| vec![t.clone()])
        .collect();
    for max_rows in SIZES {
        let mut join = probe_join(
            Box::new(RowsOp::new(left.clone())),
            Probe::TextEqOf(Src::Col(0)),
            false,
            vec![],
        );
        join.open(&ctx).unwrap();
        let mut emitted = 0;
        let err = loop {
            match join.next_batch(&ctx, max_rows) {
                Ok(batch) => {
                    assert!(!batch.is_empty(), "the error must come");
                    emitted += batch.len();
                }
                Err(e) => break e,
            }
        };
        join.close();
        assert!(
            matches!(
                &err,
                xmldb_physical::Error::NonTextComparison { value: Some(v), .. } if v == "journal"
            ),
            "max_rows {max_rows}: {err}"
        );
        // Rows before the journal produced their matches, and no more.
        assert!(emitted <= 2 * texts.len(), "max_rows {max_rows}");
        if max_rows == 1 {
            assert_eq!(emitted, 2 * texts.len());
        }
    }
}

/// The padded row of a match-less left row can be the row that fills a
/// batch, and the first row of the next one.
#[test]
fn left_outer_padding_lands_on_batch_boundaries() {
    let (_env, store) = fixture();
    let binds = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &binds);
    let joins: [(&str, &Make); 2] = [
        ("probe", &|| {
            probe_join(
                by_label("journal"),
                Probe::LabelDescendantsOf("name".into(), Src::Col(0)),
                true,
                vec![],
            )
        }),
        ("scan", &|| {
            scan_join(
                by_label("journal"),
                by_label("name"),
                1,
                true,
                descendant_preds(0, 1),
            )
        }),
    ];
    for (what, make) in joins {
        // Output positions: 5 names, pad (6th row), 1 name, pad (8th), …
        for max_rows in [2, 3, 5] {
            let got = batches(make().as_mut(), &ctx, max_rows);
            let full_ending_in_pad = got
                .iter()
                .filter(|b| b.len() == max_rows && b.row(max_rows - 1)[1].is_null())
                .count();
            let starting_with_pad = got.iter().filter(|b| b.row(0)[1].is_null()).count();
            assert!(
                full_ending_in_pad > 0 && starting_with_pad > 0,
                "{what} join at max_rows {max_rows}: {full_ending_in_pad} batches filled by \
                 a padded row, {starting_with_pad} started by one"
            );
        }
    }
}

/// Block joins: the block composition — hence the right-major output
/// order — depends on `block_rows` and the memory budget, never on the
/// consumer's batch size.
#[test]
fn block_joins_and_memory_pressure() {
    let (_env, store) = fixture();
    let binds = Bindings::with_root(&store).unwrap();
    let ctx = ExecContext::new(&store, &binds);
    let names: usize = NAMES_PER_JOURNAL.iter().sum();
    let unmatched = NAMES_PER_JOURNAL.iter().filter(|n| **n == 0).count();
    let nlj = invariant("nlj", &ctx, &|| {
        scan_join(
            by_label("journal"),
            by_label("name"),
            1,
            false,
            descendant_preds(0, 1),
        )
    });
    let sorted = |mut pairs: Vec<Vec<u64>>| {
        pairs.sort();
        pairs
    };
    for block_rows in [3, 1000] {
        for outer in [false, true] {
            let got = invariant("bnlj", &ctx, &|| {
                scan_join(
                    by_label("journal"),
                    by_label("name"),
                    block_rows,
                    outer,
                    descendant_preds(0, 1),
                )
            });
            assert_eq!(got.len(), names + if outer { unmatched } else { 0 });
            let matched: Vec<Row> = got.into_iter().filter(|r| !r[1].is_null()).collect();
            assert_eq!(sorted(ins(&matched)), sorted(ins(&nlj)));
        }
    }
    // The cross product shows the order: left-major at one row per block,
    // right-major within bigger blocks.
    let cross = |block_rows| -> Box<dyn Operator> {
        scan_join(
            by_label("title"),
            by_label("title"),
            block_rows,
            false,
            vec![],
        )
    };
    let left_major = invariant("title × title", &ctx, &|| cross(1));
    assert_eq!(ins(&left_major), sorted(ins(&left_major)));
    let one_block = invariant("title × title, one block", &ctx, &|| cross(1000));
    assert_ne!(ins(&one_block), ins(&left_major));
    assert_eq!(sorted(ins(&one_block)), ins(&left_major));
    // A budget that holds about two title rows: the 1000-row block
    // degrades to small blocks, identically at every batch size, and the
    // reservation is returned.
    let title = store.by_label("title").next().unwrap().unwrap();
    let row_bytes =
        std::mem::size_of::<Row>() + std::mem::size_of::<NodeTuple>() + title.value.unwrap().len();
    let governor = Governor::with_limits(None, Some(2 * row_bytes + 8));
    let tight = ExecContext::with_governor(&store, &binds, governor.clone());
    let degraded = invariant("title × title under budget", &tight, &|| cross(1000));
    assert_eq!(sorted(ins(&degraded)), ins(&left_major));
    assert_ne!(
        ins(&degraded),
        ins(&one_block),
        "the budget must have cut the block"
    );
    assert_ne!(
        ins(&degraded),
        ins(&left_major),
        "but not down to single rows"
    );
    assert_eq!(governor.mem_used(), 0, "block reservation released");
}
