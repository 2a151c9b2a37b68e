//! Transaction-throughput benchmark: commits/sec at 1, 4 and 16
//! concurrent committers over one WAL, and the fsyncs-per-commit ratio
//! that makes group commit visible (followers ride the leader's
//! `sync_data`, so the ratio falls well below 1.0 as committers overlap).
//!
//! Emits a machine-readable JSON snapshot (`BENCH_txn.json` at the repo
//! root) and has a regression-gate mode used by CI:
//!
//! ```text
//! cargo bench -p xmldb-bench --bench txn -- --out BENCH_txn.json
//! cargo bench -p xmldb-bench --bench txn -- --check BENCH_txn.json
//! ```
//!
//! `--check` re-measures and fails (exit 1) if commit throughput at any
//! concurrency falls more than 30% below the committed snapshot, or if
//! the 16-committer run needs one or more fsyncs per commit (group
//! commit broken). Under `cargo test --benches` (no `--bench` flag) each
//! case runs once at a reduced size as a smoke test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xmldb_bench::harness::{self, bench_mode, best_of, Bound, Field, Row, Snapshot};
use xmldb_storage::{Env, EnvConfig, PageId, StorageError};

/// One measured concurrency level.
struct Sample {
    /// Committer threads.
    threads: usize,
    /// Total committed transactions.
    commits: u64,
    /// WAL fsyncs issued during the run.
    fsyncs: u64,
    /// Commits per second (all threads together).
    commits_per_sec: f64,
}

impl Sample {
    fn fsyncs_per_commit(&self) -> f64 {
        self.fsyncs as f64 / self.commits as f64
    }

    fn row(&self) -> Row {
        vec![
            ("name", Field::Str("commit")),
            ("threads", Field::Int(self.threads as u64)),
            ("commits", Field::Int(self.commits)),
            ("fsyncs", Field::Int(self.fsyncs)),
            ("commits_per_sec", Field::Fixed(self.commits_per_sec, 1)),
            (
                "fsyncs_per_commit",
                Field::Fixed(self.fsyncs_per_commit(), 3),
            ),
        ]
    }
}

fn scratch_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("saardb-bench-txn-{}-{n}", std::process::id()))
}

/// `threads` committers, each updating its own page in its own
/// transaction, `ops` commits per thread. Write sets are disjoint, so the
/// run measures the commit path itself — WAL append + group-commit gate —
/// not lock contention (the torture commit-stress covers that).
fn commit_case(threads: usize, ops: u64) -> Sample {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let env = Env::open_dir(
        &dir,
        EnvConfig {
            page_size: 512,
            pool_bytes: 64 * 512,
        },
    )
    .expect("open bench env");
    let f = env
        .autocommit(|| {
            let f = env.create_file("accounts")?;
            for _ in 0..threads {
                env.allocate_page(f)?;
            }
            Ok::<_, StorageError>(f)
        })
        .expect("baseline commit");

    // Warmup: one commit per thread outside the measured window.
    let warm = env.begin_txn();
    {
        let _s = warm.install();
        env.with_page_mut(f, PageId(0), |d| d[0] = d[0].wrapping_add(1))
            .unwrap();
    }
    warm.commit().unwrap();

    let fsyncs_before = env.io_stats().wal_syncs;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let env = env.clone();
            s.spawn(move || {
                for i in 0..ops {
                    let txn = env.begin_txn();
                    {
                        let _scope = txn.install();
                        env.with_page_mut(f, PageId(t as u64), |d| {
                            d[..8].copy_from_slice(&(i + 1).to_le_bytes());
                        })
                        .expect("page write");
                    }
                    txn.commit().expect("commit");
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let fsyncs = env.io_stats().wal_syncs - fsyncs_before;
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
    let commits = threads as u64 * ops;
    Sample {
        threads,
        commits,
        fsyncs,
        commits_per_sec: commits as f64 / elapsed.as_secs_f64(),
    }
}

fn ops_for(threads: usize) -> u64 {
    if bench_mode() {
        // Sized so every level commits a few thousand times.
        (4096 / threads as u64).max(256)
    } else {
        8
    }
}

/// CI regression gate: re-measures every concurrency level against the
/// committed snapshot (30% throughput budget — fsync timing is noisier
/// than the CPU-bound benches' 5%) and enforces the group-commit
/// acceptance bound: strictly fewer than one fsync per commit at 16
/// committers. Up to three attempts per level absorb scheduler noise.
fn check(snapshot: &Snapshot) -> bool {
    const TOLERANCE: f64 = 1.30;
    let mut ok = true;
    for [threads, base_cps] in snapshot.rows("commit", ["threads", "commits_per_sec"]) {
        let threads = threads as usize;
        let floor = base_cps / TOLERANCE;
        let mut ratio = f64::INFINITY;
        let (best, above) = best_of(3, Bound::Floor(floor), || {
            let sample = commit_case(threads, ops_for(threads));
            ratio = ratio.min(sample.fsyncs_per_commit());
            sample.commits_per_sec
        });
        let mut verdict = if above { "ok" } else { "REGRESSED" };
        if threads >= 16 && ratio >= 1.0 {
            verdict = "NO GROUP COMMIT";
            ok = false;
        }
        println!(
            "commit threads={threads:<3} baseline {base_cps:>9.1}/s, measured {best:>9.1}/s \
             (floor {floor:>9.1}), {ratio:.3} fsyncs/commit  {verdict}"
        );
        ok &= above;
    }
    ok
}

fn run() -> Vec<Row> {
    let samples: Vec<Sample> = [1usize, 4, 16]
        .iter()
        .map(|&threads| commit_case(threads, ops_for(threads)))
        .collect();
    // The group-commit acceptance bound holds in full runs: overlapping
    // committers must amortize fsyncs.
    if bench_mode() {
        let s16 = samples.iter().find(|s| s.threads == 16).unwrap();
        assert!(
            s16.fsyncs_per_commit() < 1.0,
            "group commit not observable: {:.3} fsyncs/commit at 16 threads",
            s16.fsyncs_per_commit()
        );
    }
    samples.iter().map(Sample::row).collect()
}

fn main() {
    let failure = "transaction throughput regression (or group commit not observable)";
    harness::main("txn", run, Some((check, failure)));
}
