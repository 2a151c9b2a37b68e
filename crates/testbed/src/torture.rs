//! Crash-torture harness: scripted kill-points against the storage WAL,
//! and scripted cancellation-points against the query governor.
//!
//! The course graded engines on correctness under a memory budget; a
//! native XML-DBMS also has to survive losing power mid-write. The
//! document sweep ([`doc_torture`]) runs loads, drops and transactions over
//! them — two of them interleaved, one left open — over a schedule of
//! kill-points: at each point the [`xmldb_storage::FaultState`] "kills the
//! process" after N page writes (optionally tearing the Nth write in
//! half), the environment is dropped, reopened — which runs WAL recovery —
//! and the recovered catalog is compared against a shadow model of the
//! committed documents. Durability holds iff the database holds exactly
//! the committed documents, byte for byte, at every kill-point. The kill
//! is a power cut: every write no fsync made durable is lost (see
//! [`xmldb_storage::fault`]), so a skipped fsync diverges too. The commit
//! stress ([`doc_commit_stress`]) runs many committers at once and checks
//! the same catalog after a power cut, and that group commit batches
//! their log fsyncs.
//!
//! The cancellation sweep ([`cancel_torture`]) is the same idea aimed at
//! the resource governor: fire the cancellation token at the Nth
//! cooperative check, mid-query, on every engine, and verify the database
//! comes back clean every time — no pinned buffer frames, no leftover
//! spill files, and a follow-up query (plus a full close/reopen with WAL
//! replay) still works.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmldb_core::{Database, EngineKind, QueryOptions};
use xmldb_storage::{Env, EnvConfig, FaultBackend, FaultState, Governor, KillMode, Txn};

/// What happened at one kill-point.
#[derive(Debug, Clone)]
pub struct KillPointOutcome {
    /// The scheduled kill-point (page writes before death).
    pub kill_after: u64,
    /// Operations completed before the run died.
    pub ops_before_kill: u64,
    /// Documents in the shadow model at the kill.
    pub committed_docs: usize,
    /// Data files recovery deleted (uncommitted creations and drops).
    pub files_deleted: usize,
    /// Bytes discarded from the torn WAL tail.
    pub torn_bytes: u64,
    /// `None` if the recovered database matched the committed model;
    /// `Some(reason)` otherwise.
    pub divergence: Option<String>,
}

/// Aggregate result of a torture sweep.
#[derive(Debug, Clone, Default)]
pub struct TortureReport {
    /// One entry per kill-point, in schedule order.
    pub outcomes: Vec<KillPointOutcome>,
}

impl TortureReport {
    /// True iff every kill-point recovered to its committed snapshot.
    pub fn all_recovered(&self) -> bool {
        self.outcomes.iter().all(|o| o.divergence.is_none())
    }

    /// Kill-points whose recovery diverged from the shadow model.
    pub fn failures(&self) -> impl Iterator<Item = &KillPointOutcome> {
        self.outcomes.iter().filter(|o| o.divergence.is_some())
    }
}

impl std::fmt::Display for TortureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let failed = self.failures().count();
        writeln!(
            f,
            "crash torture: {} kill-points, {} recovered, {} diverged",
            self.outcomes.len(),
            self.outcomes.len() - failed,
            failed
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  kill@{:>5}: {:>3} ops, {:>3} committed docs, {:>3} files deleted, torn {:>4}B  {}",
                o.kill_after,
                o.ops_before_kill,
                o.committed_docs,
                o.files_deleted,
                o.torn_bytes,
                match &o.divergence {
                    None => "ok",
                    Some(why) => why.as_str(),
                }
            )?;
        }
        Ok(())
    }
}

/// The quiescence invariant both torture sweeps grade with: after any
/// run — a recovered kill-point or a cancelled query — the environment
/// must hold zero pinned buffer frames and zero leftover temp (spill)
/// files. Returns the violation as a divergence string (`None` = clean)
/// so sweeps can report it per point instead of aborting the schedule.
pub fn assert_quiescent(env: &Env) -> Option<String> {
    let pinned = env.pinned_frames();
    if pinned != 0 {
        return Some(format!("{pinned} frames left pinned"));
    }
    let temps = env.temp_files();
    if !temps.is_empty() {
        return Some(format!("temp files left behind: {temps:?}"));
    }
    None
}

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("saardb-torture-{}-{n}", std::process::id()))
}

/// Opens `dir` with every file wrapped in a [`FaultBackend`] of `faults`.
fn faulted_env(
    dir: &Path,
    config: EnvConfig,
    faults: &Arc<FaultState>,
) -> xmldb_storage::Result<Env> {
    let state = Arc::clone(faults);
    Env::open_dir_with_decorator(
        dir,
        config,
        Arc::new(move |_name, inner| Arc::new(FaultBackend::new(inner, Arc::clone(&state))) as _),
    )
}

/// Parameters for one cancellation-torture sweep.
#[derive(Debug, Clone)]
pub struct CancelTortureConfig {
    /// First trip-point: fire the token at this many governor checks.
    pub first_trip: u64,
    /// Trip-point stride: the k-th run trips at `first_trip + k*stride`.
    pub trip_stride: u64,
    /// Trip-points per engine.
    pub trip_points: u64,
    /// Optional per-query memory budget, to mix budget pressure (spills,
    /// `MemoryExceeded`) into the cancelled runs.
    pub mem_limit: Option<usize>,
    /// Buffer-pool budget for the scratch database.
    pub pool_bytes: usize,
}

impl Default for CancelTortureConfig {
    fn default() -> Self {
        CancelTortureConfig {
            first_trip: 1,
            trip_stride: 37,
            trip_points: 10,
            mem_limit: None,
            pool_bytes: 64 << 10,
        }
    }
}

/// What happened at one cancellation trip-point.
#[derive(Debug, Clone)]
pub struct CancelPointOutcome {
    /// Engine under test (or `"reopen"` for the final recovery check).
    pub engine: String,
    /// The scheduled trip-point (governor checks before the token fired).
    pub trip_after: u64,
    /// True if the token actually stopped the query; false when the query
    /// finished before reaching the trip-point.
    pub cancelled: bool,
    /// `None` if the database came back clean (no pins, no temp files,
    /// follow-up query works); `Some(reason)` otherwise.
    pub divergence: Option<String>,
}

/// Aggregate result of a cancellation sweep.
#[derive(Debug, Clone, Default)]
pub struct CancelTortureReport {
    /// One entry per (engine, trip-point), in schedule order.
    pub outcomes: Vec<CancelPointOutcome>,
}

impl CancelTortureReport {
    /// True iff every trip-point left the database clean.
    pub fn all_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.divergence.is_none())
    }

    /// True if at least one run was actually stopped mid-query (the sweep
    /// is vacuous if every query outran its trip-point).
    pub fn any_cancelled(&self) -> bool {
        self.outcomes.iter().any(|o| o.cancelled)
    }
}

impl std::fmt::Display for CancelTortureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let failed = self
            .outcomes
            .iter()
            .filter(|o| o.divergence.is_some())
            .count();
        writeln!(
            f,
            "cancel torture: {} runs, {} clean, {} dirty",
            self.outcomes.len(),
            self.outcomes.len() - failed,
            failed
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:14} trip@{:>5}: {:9}  {}",
                o.engine,
                o.trip_after,
                if o.cancelled {
                    "cancelled"
                } else {
                    "completed"
                },
                match &o.divergence {
                    None => "ok",
                    Some(why) => why.as_str(),
                }
            )?;
        }
        Ok(())
    }
}

/// A document and query sized so every engine performs enough governor
/// checks (pool pins, row boundaries, sort pushes) for mid-query trips,
/// and whose sorts/materializations exercise the spill path.
fn cancel_doc() -> String {
    let mut xml = String::from("<lib>");
    for i in 0..40 {
        xml.push_str(&format!("<journal><title>t{i}</title><authors>"));
        for j in 0..4 {
            xml.push_str(&format!("<name>a{:02}</name>", (i * 7 + j) % 23));
        }
        xml.push_str("</authors></journal>");
    }
    xml.push_str("</lib>");
    xml
}

const CANCEL_QUERY: &str = "<pairs>{ for $a in //name/text() return \
     for $b in //name/text() return if ($a = $b) then <p/> else () }</pairs>";

/// Sweeps cancellation trip-points across every engine: each run fires
/// the token at a scripted check count mid-query, then verifies the
/// database is still fully usable — zero pinned frames, zero leftover
/// temp files, a follow-up query succeeds — and finally closes and
/// reopens the database so WAL replay confirms on-disk consistency.
///
/// Errors only on harness failures (scratch-dir I/O, loading the
/// document); per-run problems are reported as divergences.
pub fn cancel_torture(cfg: &CancelTortureConfig) -> xmldb_core::Result<CancelTortureReport> {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let env_config = EnvConfig {
        pool_bytes: cfg.pool_bytes,
        ..EnvConfig::default()
    };
    let mut report = CancelTortureReport::default();
    {
        let db = Database::open_dir(&dir, env_config.clone())?;
        db.load_document("t", &cancel_doc())?;
        db.flush()?;
        for engine in EngineKind::ALL {
            for k in 0..cfg.trip_points {
                let trip = cfg.first_trip + k * cfg.trip_stride;
                let gov = Governor::unlimited();
                gov.trip_cancel_after_checks(trip);
                let options = QueryOptions {
                    governor: Some(gov.clone()),
                    mem_limit: cfg.mem_limit,
                    ..QueryOptions::default()
                };
                let result = db.query_with("t", CANCEL_QUERY, engine, &options);
                let mut divergence = match &result {
                    Ok(_) => None,
                    Err(e) if e.is_cancelled() => None,
                    Err(e) if cfg.mem_limit.is_some() && e.is_memory_exceeded() => None,
                    Err(e) => Some(format!("unexpected error: {e}")),
                };
                if divergence.is_none() {
                    divergence = assert_quiescent(db.env());
                }
                if divergence.is_none() {
                    if let Err(e) = db.query("t", "//title", EngineKind::M2Storage) {
                        divergence = Some(format!("follow-up query failed: {e}"));
                    }
                }
                report.outcomes.push(CancelPointOutcome {
                    engine: engine.name().to_string(),
                    trip_after: trip,
                    cancelled: result.as_ref().is_err(),
                    divergence,
                });
            }
        }
        db.flush()?;
    }
    // Close and reopen: WAL replay runs inside open_dir; the document must
    // come back intact after a sweep full of mid-query cancellations.
    {
        let db = Database::open_dir(&dir, env_config)?;
        let divergence = match db.query("t", "//title", EngineKind::M4CostBased) {
            Ok(r) if r.len() == 40 => None,
            Ok(r) => Some(format!(
                "post-recovery query returned {} items, expected 40",
                r.len()
            )),
            Err(e) => Some(format!("post-recovery query failed: {e}")),
        }
        .or_else(|| assert_quiescent(db.env()));
        report.outcomes.push(CancelPointOutcome {
            engine: "reopen".to_string(),
            trip_after: 0,
            cancelled: false,
            divergence,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// The checkpoint crash-window sweep: a kill between the log reset and the
/// synced fresh checkpoint record historically left a zero-length or
/// torn-head `wal.log` that recovery refused as `Corrupt`. Each scenario
/// here fabricates one of those states after a committed workload and
/// verifies recovery treats it as an empty log and the committed data
/// survives untouched. Scenario names stand in for engine names in the
/// reused [`CancelPointOutcome`] rows.
pub fn checkpoint_window_torture() -> xmldb_core::Result<CancelTortureReport> {
    let mut report = CancelTortureReport::default();
    // (name, bytes the truncated log keeps, plant a stale staging file?)
    let scenarios: [(&str, Option<u64>, bool); 3] = [
        ("zero-length-log", Some(0), false),
        ("torn-head-log", Some(3), false),
        ("stale-staging-file", None, true),
    ];
    for (name, truncate_to, plant_tmp) in scenarios {
        let dir = scratch_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let env_config = EnvConfig {
            page_size: 256,
            pool_bytes: 16 * 256,
        };
        let divergence = (|| -> Result<Option<String>, Box<dyn std::error::Error>> {
            {
                let env = Env::open_dir(&dir, env_config.clone())?;
                env.autocommit(|| {
                    let mut app = env.appender(env.create_file("t")?)?;
                    for i in 0..20u64 {
                        app.page()[0] = i as u8;
                        app.append()?;
                    }
                    Ok::<_, xmldb_storage::StorageError>(())
                })?;
            }
            // Fabricate the crash window on the closed directory.
            let wal_path = dir.join(xmldb_storage::wal::WAL_FILE);
            if let Some(len) = truncate_to {
                let file = std::fs::OpenOptions::new().write(true).open(&wal_path)?;
                file.set_len(len)?;
                file.sync_data()?;
            }
            if plant_tmp {
                std::fs::write(dir.join(xmldb_storage::wal::WAL_TMP_FILE), b"partial")?;
            }
            let env = Env::open_dir(&dir, env_config)?;
            let f = env.open_file("t")?;
            for i in 0..20u64 {
                let got = env.page(f, xmldb_storage::PageId(i)).map(|d| d[0])?;
                if got != i as u8 {
                    return Ok(Some(format!("page {i}: got {got}, want {i}")));
                }
            }
            if plant_tmp && dir.join(xmldb_storage::wal::WAL_TMP_FILE).exists() {
                return Ok(Some("stale staging file survived recovery".to_string()));
            }
            Ok(assert_quiescent(&env))
        })()
        .unwrap_or_else(|e| Some(format!("harness failure: {e}")));
        report.outcomes.push(CancelPointOutcome {
            engine: name.to_string(),
            trip_after: 0,
            cancelled: true,
            divergence,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(report)
}

/// Result of a concurrent document commit stress run.
#[derive(Debug, Clone)]
pub struct CommitStressReport {
    /// Committer threads.
    pub threads: usize,
    /// Successful commits across all threads.
    pub commits: u64,
    /// WAL fsyncs issued during the stress window.
    pub fsyncs: u64,
    /// Committed documents missing, in memory or after recovery.
    pub lost: Vec<String>,
    /// Documents present that no committed state holds (dropped, never
    /// committed, or reading back wrong), in memory or after recovery.
    pub phantom: Vec<String>,
}

impl CommitStressReport {
    /// True iff exactly the committed documents are there, in memory and
    /// after recovery.
    pub fn no_lost_updates(&self) -> bool {
        self.lost.is_empty() && self.phantom.is_empty()
    }

    /// Fsyncs per commit — group commit makes this < 1.0 under concurrency.
    pub fn fsyncs_per_commit(&self) -> f64 {
        if self.commits == 0 {
            return f64::NAN;
        }
        self.fsyncs as f64 / self.commits as f64
    }
}

impl std::fmt::Display for CommitStressReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "commit stress: {} threads, {} commits, {} fsyncs ({:.3}/commit), lost {:?}, phantom {:?}",
            self.threads,
            self.commits,
            self.fsyncs,
            self.fsyncs_per_commit(),
            self.lost,
            self.phantom,
        )
    }
}

/// The `i`-th document committer `t` loads (about 1 KB).
fn stress_doc(t: usize, i: u64) -> String {
    let mut xml = format!("<c><t>{t}</t><i>{i}</i>");
    for k in 0..24 {
        xml.push_str(&format!("<w>w{k}-{t}-{i}</w>"));
    }
    xml.push_str("</c>");
    xml
}

/// Compares the database's documents with `want` (name → XML): missing
/// ones are lost, others (or ones reading back different) phantom.
fn diff_catalog(
    db: &Database,
    want: &BTreeMap<String, String>,
    lost: &mut Vec<String>,
    phantom: &mut Vec<String>,
) -> xmldb_core::Result<()> {
    let have = db.documents()?;
    lost.extend(want.keys().filter(|n| !have.contains(n)).cloned());
    for name in have {
        if want.get(&name) != Some(&db.document_xml(&name)?) {
            phantom.push(name);
        }
    }
    Ok(())
}

/// Hammers one database with `threads` concurrent committers, each
/// committing `ops` transactions; each transaction loads a fresh ~1 KB
/// document and drops the committer's previous one. Grades the catalog —
/// exactly each committer's last document, in memory and after a power
/// cut with no flush — and group commit: log fsyncs strictly fewer than
/// commits once committers overlap.
pub fn doc_commit_stress(threads: usize, ops: u64) -> xmldb_core::Result<CommitStressReport> {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let env_config = EnvConfig {
        page_size: 1024,
        pool_bytes: 256 << 10,
    };
    let name = |t: usize, i: u64| format!("s{t:02}-{i:04}");
    let want: BTreeMap<String, String> = (0..threads)
        .filter(|_| ops > 0)
        .map(|t| (name(t, ops - 1), stress_doc(t, ops - 1)))
        .collect();
    let faults = FaultState::new();
    let (mut lost, mut phantom) = (Vec::new(), Vec::new());
    let (commits, fsyncs) = {
        let db = Database::from_env(faulted_env(&dir, env_config.clone(), &faults)?);
        let fsyncs_before = db.env().io_stats().wal_syncs;
        let commits = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let db = db.clone();
                    s.spawn(move || -> xmldb_core::Result<u64> {
                        for i in 0..ops {
                            let txn = db.begin();
                            {
                                let _scope = txn.install();
                                db.load_document(&name(t, i), &stress_doc(t, i))?;
                                if i > 0 {
                                    db.drop_document(&name(t, i - 1))?;
                                }
                            }
                            txn.commit()?;
                        }
                        Ok(ops)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("committer panicked"))
                .sum::<xmldb_core::Result<u64>>()
        })?;
        let fsyncs = db.env().io_stats().wal_syncs - fsyncs_before;
        diff_catalog(&db, &want, &mut lost, &mut phantom)?;
        // Power cut WITHOUT flush: the catalog must come from the log.
        faults.kill_now();
        (commits, fsyncs)
    };
    let db = Database::open_dir(&dir, env_config)?;
    diff_catalog(&db, &want, &mut lost, &mut phantom)?;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(CommitStressReport {
        threads,
        commits,
        fsyncs,
        lost,
        phantom,
    })
}

/// Parameters for the document kill sweep.
#[derive(Debug, Clone)]
pub struct DocTortureConfig {
    /// Operations per run, cycling through [`DOC_OPS`].
    pub ops: usize,
    /// Kill-point stride: runs die after 0, `stride`, 2·`stride`, … page
    /// writes, through the last write of an unkilled run. 1 kills at
    /// every page write.
    pub kill_stride: u64,
    /// Tear the fatal write in half instead of suppressing it.
    pub torn_writes: bool,
    /// Page size for the environment.
    pub page_size: usize,
    /// Buffer-pool budget in bytes — small, so loads in flight are evicted
    /// to disk before they commit.
    pub pool_bytes: usize,
}

impl Default for DocTortureConfig {
    fn default() -> Self {
        DocTortureConfig {
            ops: 14,
            kill_stride: 1,
            torn_writes: false,
            page_size: 512,
            pool_bytes: 16 * 512,
        }
    }
}

/// One step of the document workload: an autocommit load of a fresh
/// document, `begin; load; commit` (or `rollback`), an autocommit drop of
/// the oldest committed document, the same drop inside a transaction, or
/// two transactions interleaved on two fresh documents — both load, one
/// commits, and the other stays open through the rest of the run and the
/// kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocOp {
    Load,
    TxnLoad { commit: bool },
    Drop,
    TxnDrop { commit: bool },
    Interleaved,
}

/// The document sweep's operation cycle.
const DOC_OPS: [DocOp; 8] = [
    DocOp::Load,
    DocOp::TxnLoad { commit: true },
    DocOp::Load,
    DocOp::Drop,
    DocOp::TxnLoad { commit: false },
    DocOp::TxnDrop { commit: true },
    DocOp::TxnDrop { commit: false },
    DocOp::Interleaved,
];

/// Document `j` of the sweep: sizes vary, so some span several pages.
fn sweep_doc(j: usize) -> String {
    let mut xml = format!("<d><n>{j}</n>");
    for k in 0..(j % 5 + 1) * 12 {
        xml.push_str(&format!("<i>word{k}-{j}</i>"));
    }
    xml.push_str("</d>");
    xml
}

/// Runs one operation; a transaction it leaves open goes to `open`.
/// Returns the change to the committed model: a document added, removed,
/// or nothing.
fn run_doc_op(
    db: &Database,
    op: DocOp,
    j: usize,
    committed: &BTreeMap<String, String>,
    open: &mut Vec<Txn>,
) -> xmldb_core::Result<Option<(String, Option<String>)>> {
    let fresh = || (format!("doc{j:03}"), sweep_doc(j));
    let oldest = committed.keys().next().cloned();
    match op {
        DocOp::Load => {
            let (name, xml) = fresh();
            db.load_document(&name, &xml)?;
            Ok(Some((name, Some(xml))))
        }
        DocOp::TxnLoad { commit } => {
            let (name, xml) = fresh();
            let txn = db.begin();
            {
                let _scope = txn.install();
                db.load_document(&name, &xml)?;
            }
            if !commit {
                txn.rollback()?;
                return Ok(None);
            }
            txn.commit()?;
            Ok(Some((name, Some(xml))))
        }
        DocOp::Drop => match oldest {
            Some(name) => {
                db.drop_document(&name)?;
                Ok(Some((name, None)))
            }
            None => Ok(None),
        },
        DocOp::TxnDrop { commit } => match oldest {
            Some(name) => {
                let txn = db.begin();
                {
                    let _scope = txn.install();
                    db.drop_document(&name)?;
                }
                if !commit {
                    txn.rollback()?;
                    return Ok(None);
                }
                txn.commit()?;
                Ok(Some((name, None)))
            }
            None => Ok(None),
        },
        DocOp::Interleaved => {
            let (name, xml) = fresh();
            let (winner, open_one) = (db.begin(), db.begin());
            {
                let _scope = winner.install();
                db.load_document(&name, &xml)?;
            }
            {
                let _scope = open_one.install();
                db.load_document(&format!("{name}-open"), &sweep_doc(j + 1))?;
            }
            winner.commit()?;
            open.push(open_one);
            Ok(Some((name, Some(xml))))
        }
    }
}

/// Runs the document workload, killed after `kill_after` page writes (or
/// at its end), reopens, and checks the recovered catalog. Returns the
/// outcome and the page writes the run made.
fn doc_torture_once(
    cfg: &DocTortureConfig,
    kill_after: Option<u64>,
) -> xmldb_core::Result<(KillPointOutcome, u64)> {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let env_config = EnvConfig {
        page_size: cfg.page_size,
        pool_bytes: cfg.pool_bytes,
    };
    let faults = FaultState::new();
    let mut committed: BTreeMap<String, String> = BTreeMap::new();
    let mut ops_before_kill = 0;
    let mut open = Vec::new();
    {
        let db = Database::from_env(faulted_env(&dir, env_config.clone(), &faults)?);
        if let Some(n) = kill_after {
            let mode = if cfg.torn_writes {
                KillMode::TornWrite
            } else {
                KillMode::BeforeWrite
            };
            faults.arm_kill(n, mode);
        }
        for j in 0..cfg.ops {
            let op = DOC_OPS[j % DOC_OPS.len()];
            match run_doc_op(&db, op, j, &committed, &mut open) {
                Ok(Some((name, Some(xml)))) => drop(committed.insert(name, xml)),
                Ok(Some((name, None))) => drop(committed.remove(&name)),
                Ok(None) => {}
                Err(_) => break,
            }
            ops_before_kill = j + 1;
        }
        faults.kill_now();
    }
    let writes = faults.writes();

    // The transactions still open stay so through recovery: their fate is
    // the log's alone, as after a real crash.
    let db = Database::open_dir(&dir, env_config)?;
    let report = db.env().recovery_report().cloned().unwrap_or_default();
    let divergence = verify_catalog(&db, &dir, &committed).or_else(|| assert_quiescent(db.env()));
    drop(db);
    drop(open);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = KillPointOutcome {
        kill_after: kill_after.unwrap_or(writes),
        ops_before_kill: ops_before_kill as u64,
        committed_docs: committed.len(),
        files_deleted: report.files_deleted,
        torn_bytes: report.torn_bytes,
        divergence,
    };
    Ok((outcome, writes))
}

/// The recovered database holds exactly the committed documents: the
/// catalog lists them, each reads back byte-identical, and no other data
/// file is left in the directory.
fn verify_catalog(
    db: &Database,
    dir: &Path,
    committed: &BTreeMap<String, String>,
) -> Option<String> {
    let want: Vec<&String> = committed.keys().collect();
    match db.documents() {
        Ok(docs) if docs.iter().eq(want.iter().copied()) => {}
        Ok(docs) => return Some(format!("catalog {docs:?}, committed {want:?}")),
        Err(e) => return Some(format!("catalog unreadable: {e}")),
    }
    for (name, xml) in committed {
        match db.document_xml(name) {
            Ok(got) if &got == xml => {}
            Ok(_) => return Some(format!("{name} reads back different")),
            Err(e) => return Some(format!("{name} unreadable: {e}")),
        }
    }
    let owned: Vec<String> = committed
        .keys()
        .flat_map(|name| {
            let f = xmldb_xasr::file_names(name);
            [f.clustered, f.label, f.parent, f.text, f.stats]
        })
        .collect();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => return Some(format!("directory unreadable: {e}")),
    };
    for entry in entries.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = file.strip_suffix(".sdb") {
            if !owned.iter().any(|o| o == stem) {
                return Some(format!("uncommitted file left: {file}"));
            }
        }
    }
    None
}

/// Sweeps the document workload over its kill schedule: one unkilled run
/// measures its page writes, then a run dies at every `kill_stride`-th of
/// them. Every run — the unkilled one too, which still loses whatever was
/// never synced — must recover to exactly the committed documents.
pub fn doc_torture(cfg: &DocTortureConfig) -> xmldb_core::Result<TortureReport> {
    let (first, writes) = doc_torture_once(cfg, None)?;
    let mut report = TortureReport {
        outcomes: vec![first],
    };
    let mut kill_after = 0;
    while kill_after < writes {
        report
            .outcomes
            .push(doc_torture_once(cfg, Some(kill_after))?.0);
        kill_after += cfg.kill_stride.max(1);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three cycles of the workload through the smallest pool (8 frames):
    /// loads in flight are evicted to disk before they commit, and the
    /// catalog carries more documents across more commits.
    fn tiny_pool() -> DocTortureConfig {
        DocTortureConfig {
            ops: 3 * DOC_OPS.len(),
            pool_bytes: 8 * 512,
            ..DocTortureConfig::default()
        }
    }

    /// Some kill-point fired before the run's `ops` operations were done.
    fn killed_mid_workload(report: &TortureReport, ops: usize) -> bool {
        report
            .outcomes
            .iter()
            .any(|o| o.ops_before_kill < ops as u64)
    }

    #[test]
    fn bounded_kill_point_sweep_recovers() {
        for torn_writes in [false, true] {
            let cfg = DocTortureConfig {
                kill_stride: 41,
                torn_writes,
                ..tiny_pool()
            };
            let report = doc_torture(&cfg).unwrap();
            assert!(report.outcomes.len() > 4, "{report}");
            assert!(report.all_recovered(), "{report}");
            assert!(killed_mid_workload(&report, cfg.ops), "{report}");
        }
    }

    /// The full tiny-pool sweep: a kill at every page write, plain and
    /// torn. Run by the CI crash-torture step.
    #[test]
    #[ignore = "extended sweep; CI runs it explicitly with --ignored"]
    fn full_kill_point_sweep_tiny_pool() {
        let report = doc_torture(&tiny_pool()).unwrap();
        assert!(report.all_recovered(), "{report}");
        let torn = doc_torture(&DocTortureConfig {
            torn_writes: true,
            ..tiny_pool()
        })
        .unwrap();
        assert!(torn.all_recovered(), "{torn}");
    }

    #[test]
    fn bounded_cancellation_sweep_leaves_db_clean() {
        let cfg = CancelTortureConfig {
            first_trip: 1,
            trip_stride: 29,
            trip_points: 3,
            mem_limit: Some(16 << 10),
            ..CancelTortureConfig::default()
        };
        let report = cancel_torture(&cfg).unwrap();
        // Every engine × 3 trip-points + the reopen check.
        assert_eq!(report.outcomes.len(), EngineKind::ALL.len() * 3 + 1);
        assert!(report.all_clean(), "{report}");
        assert!(
            report.any_cancelled(),
            "no trip-point fired mid-query: {report}"
        );
    }

    /// The full cancellation acceptance sweep. Run by the CI torture step.
    #[test]
    #[ignore = "extended sweep; CI runs it explicitly with --ignored"]
    fn full_cancellation_sweep() {
        let report = cancel_torture(&CancelTortureConfig::default()).unwrap();
        assert!(report.all_clean(), "{report}");
        assert!(report.any_cancelled(), "{report}");
        // A second schedule under memory pressure: spills and
        // MemoryExceeded mix into the cancelled runs.
        let pressured = cancel_torture(&CancelTortureConfig {
            mem_limit: Some(8 << 10),
            trip_points: 6,
            trip_stride: 101,
            ..CancelTortureConfig::default()
        })
        .unwrap();
        assert!(pressured.all_clean(), "{pressured}");
    }

    /// Two cycles of the workload: the second interleaved step runs while
    /// the first one's open transaction still holds its lock and its new
    /// files, and kills land with both open.
    fn two_cycles(kill_stride: u64) -> DocTortureConfig {
        DocTortureConfig {
            ops: 2 * DOC_OPS.len(),
            kill_stride,
            ..DocTortureConfig::default()
        }
    }

    #[test]
    fn bounded_interleaved_txn_sweep_recovers() {
        let report = doc_torture(&two_cycles(29)).unwrap();
        assert!(report.all_recovered(), "{report}");
        // Some kill must land after the first interleaved step, with its
        // open transaction's files on disk for recovery to delete.
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.ops_before_kill >= DOC_OPS.len() as u64 && o.files_deleted > 0),
            "no kill-point exercised an open transaction: {report}"
        );
    }

    /// The full interleaved sweep: a kill at every page write over two
    /// cycles. Run by CI.
    #[test]
    #[ignore = "extended sweep; CI runs it explicitly with --ignored"]
    fn full_interleaved_txn_kill_sweep() {
        let report = doc_torture(&two_cycles(1)).unwrap();
        assert!(report.all_recovered(), "{report}");
    }

    #[test]
    fn checkpoint_crash_window_states_recover_as_empty() {
        let report = checkpoint_window_torture().unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.all_clean(), "{report}");
    }

    #[test]
    fn bounded_commit_stress_keeps_every_update() {
        let report = doc_commit_stress(4, 15).unwrap();
        assert_eq!(report.commits, 4 * 15, "{report}");
        assert!(report.no_lost_updates(), "{report}");
    }

    /// The 16-thread acceptance stress: zero lost or phantom documents and
    /// strictly fewer than one log fsync per commit. Run by CI.
    #[test]
    #[ignore = "extended stress; CI runs it explicitly with --ignored"]
    fn full_commit_stress_16_threads() {
        let report = doc_commit_stress(16, 25).unwrap();
        eprintln!("{report}");
        assert_eq!(report.commits, 16 * 25, "{report}");
        assert!(report.no_lost_updates(), "{report}");
        assert!(
            report.fsyncs < report.commits,
            "group commit not observable: {report}"
        );
    }

    #[test]
    fn bounded_document_kill_sweep_recovers_the_catalog() {
        let report = doc_torture(&DocTortureConfig {
            kill_stride: 23,
            ..DocTortureConfig::default()
        })
        .unwrap();
        assert!(report.outcomes.len() > 4, "{report}");
        assert!(report.all_recovered(), "{report}");
        assert!(
            killed_mid_workload(&report, DocTortureConfig::default().ops),
            "no kill-point fired mid-workload: {report}"
        );
    }

    /// The full document sweep: a kill at every page write, plain and
    /// torn. Run by CI.
    #[test]
    #[ignore = "extended sweep; CI runs it explicitly with --ignored"]
    fn full_document_kill_sweep() {
        let report = doc_torture(&DocTortureConfig::default()).unwrap();
        assert!(report.all_recovered(), "{report}");
        let torn = doc_torture(&DocTortureConfig {
            torn_writes: true,
            ..DocTortureConfig::default()
        })
        .unwrap();
        assert!(torn.all_recovered(), "{torn}");
    }
}
