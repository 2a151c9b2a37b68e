//! Transaction-throughput benchmark: document commits/sec at 1, 4 and 16
//! concurrent committers over one WAL, and the fsyncs-per-commit ratio
//! that makes group commit visible (followers ride the leader's
//! `sync_data`, so the ratio falls well below 1.0 as committers overlap).
//! Each commit is the kind of change the system makes: it loads a ~1 KB
//! document and drops the committer's previous one.
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
//! the 16-committer run needs one or more log fsyncs per commit (group
//! commit broken). Under `cargo test --benches` (no `--bench` flag) each
//! case runs once at a reduced size as a smoke test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xmldb_bench::harness::{self, bench_mode, best_of, Bound, Field, Row, Snapshot};
use xmldb_core::Database;
use xmldb_storage::EnvConfig;

/// One measured concurrency level.
struct Sample {
    /// Committer threads.
    threads: usize,
    /// Total committed transactions (one document load and drop each).
    commits: u64,
    /// Log fsyncs issued during the run.
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

/// Committer `t`'s `i`-th document: about 1 KB of XML.
fn document(t: usize, i: u64) -> String {
    let words: String = (0..24).map(|k| format!("<w>w{k}-{t}-{i}</w>")).collect();
    format!("<c><i>{i}</i>{words}</c>")
}

fn name(t: usize, i: u64) -> String {
    format!("c{t}-{i}")
}

/// `threads` committers, `ops` commits each; each commit loads the
/// committer's next document and drops its previous one. Names are
/// disjoint across committers, so the run measures the commit path itself
/// — shredding, new-file fsyncs, the commit record and the group-commit
/// gate — not lock contention.
fn commit_case(threads: usize, ops: u64) -> Sample {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open_dir(&dir, EnvConfig::default()).expect("open bench db");
    // Warmup: one commit outside the measured window.
    db.load_document("warm", &document(0, 0))
        .expect("warmup commit");

    let fsyncs_before = db.env().io_stats().wal_syncs;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..ops {
                    let txn = db.begin();
                    {
                        let _scope = txn.install();
                        db.load_document(&name(t, i), &document(t, i))
                            .expect("load");
                        if i > 0 {
                            db.drop_document(&name(t, i - 1)).expect("drop");
                        }
                    }
                    txn.commit().expect("commit");
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let fsyncs = db.env().io_stats().wal_syncs - fsyncs_before;
    drop(db);
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
        // Sized so every level commits several hundred times.
        (512 / threads as u64).max(64)
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
