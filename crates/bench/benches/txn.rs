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
//! commit broken). Under `cargo test` (no `--bench` flag) each case runs
//! once at a reduced size as a smoke test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
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
}

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
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

fn render_json(samples: &[Sample]) -> String {
    let mut s = String::from("{\n  \"bench\": \"txn\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"results\": [\n",
        if bench_mode() { "bench" } else { "smoke" }
    ));
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"commit\", \"threads\": {}, \"commits\": {}, \"fsyncs\": {}, \"commits_per_sec\": {:.1}, \"fsyncs_per_commit\": {:.3}}}{}\n",
            r.threads,
            r.commits,
            r.fsyncs,
            r.commits_per_sec,
            r.fsyncs_per_commit(),
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pulls `(threads, commits_per_sec)` entries out of a committed snapshot
/// without a JSON dependency: entries are one per line in the format
/// `render_json` writes.
fn baseline_commits(snapshot: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for line in snapshot.lines() {
        let Some(rest) = line
            .trim()
            .strip_prefix("{\"name\": \"commit\", \"threads\": ")
        else {
            continue;
        };
        let threads: usize = rest
            .split(',')
            .next()
            .and_then(|s| s.trim().parse().ok())
            .expect("malformed snapshot line");
        let cps: f64 = rest
            .split("\"commits_per_sec\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("malformed snapshot line");
        out.push((threads, cps));
    }
    out
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
fn check(baseline_path: &str) -> bool {
    const TOLERANCE: f64 = 1.30;
    let mut path = std::path::PathBuf::from(baseline_path);
    if !path.exists() && path.is_relative() {
        path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(baseline_path);
    }
    let snapshot = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let baseline = baseline_commits(&snapshot);
    assert!(!baseline.is_empty(), "no commit entries in {baseline_path}");
    let mut ok = true;
    for (threads, base_cps) in baseline {
        let floor = base_cps / TOLERANCE;
        let mut best = 0.0f64;
        let mut ratio = f64::INFINITY;
        for _attempt in 0..3 {
            let sample = commit_case(threads, ops_for(threads));
            best = best.max(sample.commits_per_sec);
            ratio = ratio.min(sample.fsyncs_per_commit());
            if best >= floor {
                break;
            }
        }
        let mut verdict = if best >= floor { "ok" } else { "REGRESSED" };
        if threads >= 16 && ratio >= 1.0 {
            verdict = "NO GROUP COMMIT";
            ok = false;
        }
        println!(
            "commit threads={threads:<3} baseline {base_cps:>9.1}/s, measured {best:>9.1}/s \
             (floor {floor:>9.1}), {ratio:.3} fsyncs/commit  {verdict}"
        );
        ok &= best >= floor;
    }
    ok
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // Any other flag is a harness flag (--bench, filters) — ignored.
        match flag.as_str() {
            "--out" => out_path = Some(args.next().expect("--out takes a path")),
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            _ => {}
        }
    }

    if let Some(path) = check_path {
        if !check(&path) {
            eprintln!("transaction throughput regression (or group commit not observable)");
            std::process::exit(1);
        }
        return;
    }

    let mut samples = Vec::new();
    for &threads in &[1usize, 4, 16] {
        samples.push(commit_case(threads, ops_for(threads)));
    }
    for r in &samples {
        println!(
            "commit  threads={:<3} {:>10.1} commits/s   {:>7.3} fsyncs/commit  ({} commits, {} fsyncs)",
            r.threads,
            r.commits_per_sec,
            r.fsyncs_per_commit(),
            r.commits,
            r.fsyncs
        );
    }
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
    let json = render_json(&samples);
    match out_path {
        Some(path) => std::fs::write(&path, &json).expect("write JSON snapshot"),
        None => print!("{json}"),
    }
}
