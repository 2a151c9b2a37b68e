//! WAL write-path overhead: insert+commit workloads on a disk environment
//! (page-image WAL on) against the same workload on a memory environment
//! (no WAL), plus the log's write amplification per committed insert.
//!
//! ```text
//! cargo bench -p xmldb-bench --bench wal -- --out BENCH_wal.json
//! ```
//!
//! Under `cargo test --benches` (no `--bench` flag) each case runs once
//! at a reduced size as a smoke test.

use xmldb_bench::harness::{self, bench_mode, measure, Row, Sample};
use xmldb_storage::{codec, BTree, Env, EnvConfig, StorageError};

fn key(i: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(8);
    // Scramble so inserts are not an append-only best case.
    codec::put_u64(&mut k, i.wrapping_mul(6364136223846793005));
    k
}

fn config() -> EnvConfig {
    EnvConfig {
        page_size: 8192,
        pool_bytes: 4 << 20,
    }
}

/// One workload run: `n` inserts, `batch` per transaction. Returns the
/// ops count (n) for the harness.
fn workload(env: &Env, n: u64, batch: u64) -> u64 {
    let mut tree = env.autocommit(|| BTree::create(env, "wal-bench")).unwrap();
    for first in (0..n).step_by(batch as usize) {
        env.autocommit(|| {
            for i in first..(first + batch).min(n) {
                tree.insert(&key(i), format!("value-{i:08}").as_bytes())?;
            }
            Ok::<_, StorageError>(())
        })
        .unwrap();
    }
    n
}

fn scratch(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("saardb-wal-bench-{}-{tag}", std::process::id()))
}

fn run() -> Vec<Row> {
    let (n, batch, iters) = if bench_mode() {
        (10_000u64, 1_000u64, 3u64)
    } else {
        (500, 100, 1)
    };

    let mut samples = Vec::new();

    // Ceiling: the same workload with no WAL and no disk at all.
    samples.push(measure("insert_commit_mem", n, iters, || {
        let env = Env::memory_with(config());
        workload(&env, n, batch)
    }));

    // The real thing: disk files + page-image WAL + fsync per commit.
    let mut dir_seq = 0u64;
    samples.push(measure("insert_commit_disk_wal", n, iters, || {
        dir_seq += 1;
        let dir = scratch(dir_seq);
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, config()).unwrap();
        let ops = workload(&env, n, batch);
        drop(env);
        let _ = std::fs::remove_dir_all(&dir);
        ops
    }));

    // Write amplification: WAL bytes appended per committed insert.
    {
        let dir = scratch(0);
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, config()).unwrap();
        workload(&env, n, batch);
        let io = env.io_stats();
        samples.push(Sample {
            name: "wal_bytes_per_insert",
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
            ns_per_op: io.wal_syncs as f64 / (n / batch) as f64,
        });
        drop(env);
        let _ = std::fs::remove_dir_all(&dir);
    }

    samples.iter().map(Sample::row).collect()
}

fn main() {
    harness::main("wal", run, None);
}
