//! Write-path overhead: document commits on a disk environment (new-file
//! fsyncs plus one commit record) against the same workload on a memory
//! environment (no log, no disk), plus the log's bytes and fsyncs per
//! commit. Each commit loads a ~1 KB document and drops the previous one.
//!
//! ```text
//! cargo bench -p xmldb-bench --bench wal -- --out BENCH_wal.json
//! ```
//!
//! Under `cargo test --benches` (no `--bench` flag) each case runs once
//! at a reduced size as a smoke test.

use xmldb_bench::harness::{self, bench_mode, measure, Row, Sample};
use xmldb_core::Database;
use xmldb_storage::EnvConfig;

/// The `i`-th document: about 1 KB of XML.
fn document(i: u64) -> String {
    let words: String = (0..24).map(|k| format!("<w>w{k}-{i}</w>")).collect();
    format!("<c><i>{i}</i>{words}</c>")
}

/// One workload run: `n` commits, each loading document `i` and dropping
/// document `i - 1`. Returns the commit count for the harness.
fn workload(db: &Database, n: u64) -> u64 {
    for i in 0..n {
        let txn = db.begin();
        {
            let _scope = txn.install();
            db.load_document(&format!("d{i}"), &document(i)).unwrap();
            if i > 0 {
                db.drop_document(&format!("d{}", i - 1)).unwrap();
            }
        }
        txn.commit().unwrap();
    }
    n
}

fn scratch(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("saardb-wal-bench-{}-{tag}", std::process::id()))
}

fn run() -> Vec<Row> {
    let (n, iters) = if bench_mode() {
        (500u64, 3u64)
    } else {
        (20, 1)
    };

    let mut samples = Vec::new();

    // Ceiling: the same workload with no log and no disk at all.
    samples.push(measure("doc_commit_mem", n, iters, || {
        workload(&Database::in_memory(), n)
    }));

    // The real thing: disk files, their fsyncs, and the commit record.
    let mut dir_seq = 0u64;
    samples.push(measure("doc_commit_disk_wal", n, iters, || {
        dir_seq += 1;
        let dir = scratch(dir_seq);
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
        let ops = workload(&db, n);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        ops
    }));

    // Write amplification: log bytes and fsyncs per commit.
    {
        let dir = scratch(0);
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
        let before = db.env().io_stats();
        workload(&db, n);
        let io = db.env().io_stats().delta(&before);
        samples.push(Sample {
            name: "wal_bytes_per_commit",
            size: n,
            iters: 1,
            ops: io.wal_appends,
            ns_per_op: io.wal_bytes as f64 / n as f64,
        });
        samples.push(Sample {
            name: "wal_syncs_per_commit",
            size: n,
            iters: 1,
            ops: io.wal_syncs,
            ns_per_op: io.wal_syncs as f64 / n as f64,
        });
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    samples.iter().map(Sample::row).collect()
}

fn main() {
    harness::main("wal", run, None);
}
