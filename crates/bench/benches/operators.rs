//! Microbenchmarks of the storage and operator substrate: B+-tree point
//! operations and scans, external sorting, and the one join operator in
//! its three inner-join parameterisations (re-scanned right side row by
//! row, index probe, re-scanned right side per 64-row block) on a
//! structural-join workload.

use xmldb_algebra::{Attr, CmpOp};
use xmldb_bench::harness::time;
use xmldb_physical::ops::{JoinInner, JoinOp, Probe, ScanOp, Src};
use xmldb_physical::{execute_all, Bindings, ExecContext, Operator, PhysOperand, PhysPred};
use xmldb_storage::{BTree, Env, EnvConfig, ExternalSorter};
use xmldb_xasr::shred_document;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn bench_btree() {
    time("btree", "insert-10k", || {
        let env = Env::memory();
        let mut tree = BTree::create(&env, "t").unwrap();
        for i in 0..10_000u64 {
            tree.insert(&key((i * 7919 + 13) % 10_000), b"payload")
                .unwrap();
        }
        tree.len()
    });

    time("btree", "bulk-load-10k", || {
        let env = Env::memory();
        let mut tree = BTree::create(&env, "t").unwrap();
        tree.bulk_load((0..10_000u64).map(|i| (key(i), b"payload".to_vec())))
            .unwrap();
        tree.len()
    });

    let env = Env::memory();
    let mut tree = BTree::create(&env, "probe").unwrap();
    tree.bulk_load((0..100_000u64).map(|i| (key(i), b"v".to_vec())))
        .unwrap();
    let mut i = 0u64;
    time("btree", "get-hot", || {
        i = (i * 6364136223846793005 + 1442695040888963407) % 100_000;
        tree.get(&key(i)).unwrap()
    });
    time("btree", "range-scan-1k", || {
        tree.range(
            std::ops::Bound::Included(key(40_000).as_slice()),
            std::ops::Bound::Excluded(key(41_000).as_slice()),
        )
        .count()
    });
}

fn bench_sort() {
    for (name, budget) in [("in-memory", 64 << 20), ("spilling", 64 << 10)] {
        time("external_sort", name, || {
            let env = Env::memory_with(EnvConfig::default());
            let mut sorter = ExternalSorter::lexicographic(&env, budget);
            for i in 0..50_000u64 {
                sorter.push(key((i * 2654435761) % 50_000)).unwrap();
            }
            sorter.finish().unwrap().count()
        });
    }
}

fn bench_joins() {
    // Structural join: journals ⋈descendant names on a synthetic document.
    let mut xml = String::from("<lib>");
    for j in 0..50 {
        xml.push_str("<journal><authors>");
        for n in 0..20 {
            xml.push_str(&format!("<name>n{j}-{n}</name>"));
        }
        xml.push_str("</authors></journal>");
    }
    xml.push_str("</lib>");
    let env = Env::memory();
    let store = shred_document(&env, "j", &xml).unwrap();
    let binds = Bindings::with_root(&store).unwrap();

    let descendant_preds = || {
        vec![
            PhysPred {
                op: CmpOp::Lt,
                lhs: PhysOperand::Col {
                    pos: 0,
                    attr: Attr::In,
                },
                rhs: PhysOperand::Col {
                    pos: 1,
                    attr: Attr::In,
                },
                strict_text: false,
            },
            PhysPred {
                op: CmpOp::Lt,
                lhs: PhysOperand::Col {
                    pos: 1,
                    attr: Attr::Out,
                },
                rhs: PhysOperand::Col {
                    pos: 0,
                    attr: Attr::Out,
                },
                strict_text: false,
            },
        ]
    };

    let by_label = |label: &str| -> Box<dyn Operator> {
        Box::new(ScanOp::new(Probe::ByLabel(label.into()), vec![]))
    };
    let names_rescanned = |block_rows| JoinInner::Scan {
        right: by_label("name"),
        block_rows,
    };
    let cases: [(&str, &dyn Fn() -> JoinOp); 3] = [
        ("nlj", &|| {
            let inner = names_rescanned(1);
            JoinOp::new(by_label("journal"), inner, false, descendant_preds())
        }),
        ("inlj", &|| {
            let probe = Probe::LabelDescendantsOf("name".into(), Src::Col(0));
            JoinOp::new(by_label("journal"), JoinInner::Probe(probe), false, vec![])
        }),
        ("bnlj", &|| {
            let inner = names_rescanned(64);
            JoinOp::new(by_label("journal"), inner, false, descendant_preds())
        }),
    ];
    for (name, join) in cases {
        time("structural_join", name, || {
            let ctx = ExecContext::new(&store, &binds);
            execute_all(&mut join(), &ctx).unwrap().len()
        });
    }
}

fn main() {
    bench_btree();
    bench_sort();
    bench_joins();
}
