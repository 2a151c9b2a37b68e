//! B+-tree read-path benchmark: full scans and prefix scans against the
//! raw tree, plus a descendant query end-to-end through `shred_document`
//! and the M2/M4 engines. Warm point-gets are measured by the `obs` bench.
//!
//! Emits a machine-readable JSON snapshot so read-path changes can be
//! compared against a committed baseline (`BENCH_btree_read.json` /
//! `BENCH_btree_read.baseline.json` at the repo root):
//!
//! ```text
//! cargo bench -p xmldb-bench --bench btree_read -- --out BENCH_btree_read.json
//! ```
//!
//! Under `cargo test --benches` (no `--bench` flag) each case runs once
//! as a smoke test at a reduced size.

use xmldb_bench::harness::{self, bench_mode, measure, Row, Sample};
use xmldb_core::{Database, EngineKind};
use xmldb_storage::{codec, BTree, Env, EnvConfig};

fn label_key(label: u64, i: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(24);
    codec::put_str_terminated(&mut k, &format!("label{label:03}"));
    codec::put_u64(&mut k, i);
    k
}

/// Raw-tree cases at one size: the tree is bulk-loaded with `n` short
/// values under a pool large enough to hold it (warm reads only — the
/// paper's efficiency setting once the working set fits the 20 MB budget).
fn raw_tree_cases(n: u64, out: &mut Vec<Sample>) {
    let env = Env::memory_with(EnvConfig {
        page_size: 8192,
        pool_bytes: 32 << 20,
    });
    let mut tree = BTree::create(&env, "bench").unwrap();
    tree.bulk_load((0..n).map(|i| {
        (
            i.to_be_bytes().to_vec(),
            format!("value-{i:08}").into_bytes(),
        )
    }))
    .unwrap();

    // The canonical scan: zero-copy visit of every row in place. The
    // pre-slotted engine had no cheaper way to walk the tree than the
    // materializing cursor, so the baseline's `full_scan` numbers are the
    // cursor's.
    out.push(measure("full_scan", n, 4, || {
        let mut rows = 0u64;
        let mut sum = 0u64;
        tree.scan(|k, v| {
            sum = sum.wrapping_add(k[7] as u64 + v.len() as u64);
            rows += 1;
            true
        })
        .unwrap();
        assert_eq!(rows, n);
        std::hint::black_box(sum);
        rows
    }));

    // The cursor path (owned key/value pairs per row), same shape as the
    // pre-change `full_scan`.
    out.push(measure("full_scan_materialize", n, 4, || {
        let mut rows = 0u64;
        for entry in tree.iter() {
            let (k, v) = entry.unwrap();
            std::hint::black_box((k, v));
            rows += 1;
        }
        assert_eq!(rows, n);
        rows
    }));

    // Secondary-index shape: 64 labels, n/64 entries each, scanned label by
    // label (the XASR `(label, in)` covering-index pattern).
    let labels = 64u64;
    let mut idx = BTree::create(&env, "bench-idx").unwrap();
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
        .map(|i| (label_key(i % labels, i), i.to_be_bytes().to_vec()))
        .collect();
    entries.sort();
    idx.bulk_load(entries).unwrap();
    out.push(measure("prefix_scan", n, 4, || {
        let mut rows = 0u64;
        for label in 0..labels {
            let mut prefix = Vec::new();
            codec::put_str_terminated(&mut prefix, &format!("label{label:03}"));
            for entry in idx.prefix(&prefix) {
                entry.unwrap();
                rows += 1;
            }
        }
        assert_eq!(rows, n);
        rows
    }));
}

/// End-to-end cases: shred a generated document and run a descendant query
/// through the M2 interpreter and the M4 cost-based engine.
fn engine_cases(records: u64, out: &mut Vec<Sample>) {
    let db = Database::in_memory_with(EnvConfig {
        page_size: 8192,
        pool_bytes: 32 << 20,
    });
    let mut xml = String::from("<db>");
    for i in 0..records {
        xml.push_str(&format!(
            "<journal><name>author-{i:06}</name><title>t{i}</title></journal>"
        ));
    }
    xml.push_str("</db>");
    db.load_document("bench", &xml).unwrap();

    for (name, engine) in [
        ("engine_m2_descendant", EngineKind::M2Storage),
        ("engine_m4_descendant", EngineKind::M4CostBased),
    ] {
        out.push(measure(name, records, 3, || {
            let result = db.query("bench", "//name", engine).unwrap();
            assert_eq!(result.len(), records as usize);
            1
        }));
    }
}

fn run() -> Vec<Row> {
    let sizes: &[u64] = if bench_mode() {
        &[1_000, 10_000, 50_000]
    } else {
        &[500]
    };
    let records = if bench_mode() { 5_000 } else { 200 };

    let mut samples = Vec::new();
    for &n in sizes {
        raw_tree_cases(n, &mut samples);
    }
    engine_cases(records, &mut samples);
    samples.iter().map(Sample::row).collect()
}

fn main() {
    harness::main("btree_read", run, None);
}
