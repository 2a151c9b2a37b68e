//! Crash-torture harness: scripted kill-points against the storage WAL,
//! and scripted cancellation-points against the query governor.
//!
//! The course graded engines on correctness under a memory budget; a
//! native XML-DBMS also has to survive losing power mid-write. This
//! harness sweeps a workload over a schedule of kill-points: at each
//! point the [`xmldb_storage::FaultState`] "kills the process" after N
//! page writes (optionally tearing the Nth write in half), the
//! environment is dropped, reopened — which runs WAL recovery — and the
//! recovered B+-tree is compared against a shadow `BTreeMap` snapshotted
//! at the last successful commit. Durability holds iff the tree equals
//! the committed snapshot exactly, at every kill-point.
//!
//! The kill is a power cut: every write no fsync made durable is lost
//! (see [`xmldb_storage::fault`]), so a skipped fsync diverges too. The
//! document sweep ([`doc_torture`]) kills loads, drops and transactions
//! over them and checks the recovered catalog.
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
use xmldb_storage::{BTree, Env, EnvConfig, FaultBackend, FaultState, Governor, KillMode};

/// Parameters for one torture sweep.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Keys inserted per run (the workload).
    pub inserts: u64,
    /// Inserts per transaction: `Txn::commit` after every this many.
    pub commit_every: u64,
    /// First kill-point: die after this many page writes.
    pub first_kill: u64,
    /// Kill-point stride: the k-th run dies after `first_kill + k*stride`
    /// page writes.
    pub kill_stride: u64,
    /// Number of kill-points to sweep (bounds the schedule for CI).
    pub kill_points: u64,
    /// Tear the fatal write in half instead of suppressing it.
    pub torn_writes: bool,
    /// Page size for the environment (small pages force splits early).
    pub page_size: usize,
    /// Buffer-pool budget in bytes (small pools force eviction steals).
    pub pool_bytes: usize,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            inserts: 1000,
            commit_every: 50,
            first_kill: 1,
            kill_stride: 7,
            kill_points: 20,
            torn_writes: false,
            page_size: 256,
            pool_bytes: 8 * 256,
        }
    }
}

/// What happened at one kill-point.
#[derive(Debug, Clone)]
pub struct KillPointOutcome {
    /// The scheduled kill-point (page writes before death).
    pub kill_after: u64,
    /// Inserts applied before the run died.
    pub inserts_before_kill: u64,
    /// Keys in the shadow model at the last successful commit.
    pub committed_keys: usize,
    /// Pages redone from after-images during recovery.
    pub pages_redone: usize,
    /// Pages undone from before-images during recovery.
    pub pages_undone: usize,
    /// Bytes discarded from the torn WAL tail.
    pub torn_bytes: u64,
    /// `None` if the recovered tree matched the committed snapshot;
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
        let failed = self.outcomes.len()
            - self
                .outcomes
                .iter()
                .filter(|o| o.divergence.is_none())
                .count();
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
                "  kill@{:>5}: {:>4} inserts, {:>4} committed keys, redo {:>3}, undo {:>3}, torn {:>4}B  {}",
                o.kill_after,
                o.inserts_before_kill,
                o.committed_keys,
                o.pages_redone,
                o.pages_undone,
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

fn key(i: u64) -> Vec<u8> {
    format!("doc{:06}", (i * 7919) % 1_000_000).into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    format!("node-{i}-{}", "p".repeat((i % 29) as usize)).into_bytes()
}

/// Runs the workload to one kill-point and verifies recovery.
fn torture_once(cfg: &TortureConfig, kill_after: u64) -> xmldb_storage::Result<KillPointOutcome> {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let env_config = EnvConfig {
        page_size: cfg.page_size,
        pool_bytes: cfg.pool_bytes,
    };
    let mode = if cfg.torn_writes {
        KillMode::TornWrite
    } else {
        KillMode::BeforeWrite
    };

    let faults = FaultState::new();
    let mut committed: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut inserts_before_kill = 0u64;
    {
        let env = faulted_env(&dir, env_config.clone(), &faults)?;
        let mut txn = env.begin_txn();
        let mut tree = {
            let _scope = txn.install();
            BTree::create(&env, "torture")?
        };
        faults.arm_kill(kill_after, mode);
        for i in 0..cfg.inserts {
            let inserted = {
                let _scope = txn.install();
                tree.insert(&key(i), &value(i))
            };
            if inserted.is_err() {
                break;
            }
            model.insert(key(i), value(i));
            inserts_before_kill = i + 1;
            if (i + 1) % cfg.commit_every == 0 {
                if txn.commit().is_err() {
                    break;
                }
                committed = model.clone();
                txn = env.begin_txn();
            }
        }
        // If the whole workload fit before the kill-point fired, commit the
        // remainder so the run still exercises recovery of a clean tail.
        if !faults.is_killed() && txn.commit().is_ok() {
            committed = model.clone();
        }
        faults.kill_now();
    }

    // Reopen without fault injection: recovery runs inside `open_dir`.
    let env = Env::open_dir(&dir, env_config)?;
    let report = env.recovery_report().cloned().unwrap_or_default();
    let divergence = verify(&env, &committed).or_else(|| assert_quiescent(&env));
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);

    Ok(KillPointOutcome {
        kill_after,
        inserts_before_kill,
        committed_keys: committed.len(),
        pages_redone: report.pages_redone,
        pages_undone: report.pages_undone,
        torn_bytes: report.torn_bytes,
        divergence,
    })
}

/// Compares the recovered tree against the committed shadow snapshot.
fn verify(env: &Env, committed: &BTreeMap<Vec<u8>, Vec<u8>>) -> Option<String> {
    let tree = match BTree::open(env, "torture") {
        Ok(t) => t,
        // A run killed before its first commit may roll the tree's meta
        // page back to zeros (or truncate the file away entirely); failing
        // to open is then the correct committed state: nothing.
        Err(_) if committed.is_empty() => return None,
        Err(e) => return Some(format!("committed tree failed to open: {e}")),
    };
    let mut recovered = BTreeMap::new();
    let scan = tree.scan(|k, v| {
        recovered.insert(k.to_vec(), v.to_vec());
        true
    });
    if let Err(e) = scan {
        return Some(format!("recovered tree unreadable: {e}"));
    }
    if &recovered != committed {
        let missing = committed
            .keys()
            .filter(|k| !recovered.contains_key(*k))
            .count();
        let extra = recovered
            .keys()
            .filter(|k| !committed.contains_key(*k))
            .count();
        return Some(format!(
            "diverged: {} committed keys missing, {} uncommitted keys present",
            missing, extra
        ));
    }
    None
}

/// Sweeps the kill-point schedule and reports per-point outcomes.
///
/// Errors only on harness failures (scratch directory I/O); divergence at
/// a kill-point is reported in the [`TortureReport`], not as an `Err`.
pub fn crash_torture(cfg: &TortureConfig) -> xmldb_storage::Result<TortureReport> {
    let mut report = TortureReport::default();
    for k in 0..cfg.kill_points {
        let kill_after = cfg.first_kill + k * cfg.kill_stride;
        report.outcomes.push(torture_once(cfg, kill_after)?);
    }
    Ok(report)
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

/// Parameters for the interleaved-transaction kill sweep.
#[derive(Debug, Clone)]
pub struct TxnTortureConfig {
    /// Interleaved write rounds per run; the crash lands after round k.
    pub rounds: u64,
    /// Number of kill-points (k = 0..kill_points, clamped to `rounds`).
    pub kill_points: u64,
    /// Pages each transaction updates (round-robin).
    pub pages_per_txn: u64,
    /// Page size for the environment.
    pub page_size: usize,
    /// Buffer-pool budget in bytes — kept smaller than the working set so
    /// the loser's dirty pages are *stolen* to disk before the crash and
    /// recovery has real undo work to do.
    pub pool_bytes: usize,
}

impl Default for TxnTortureConfig {
    fn default() -> Self {
        TxnTortureConfig {
            rounds: 24,
            kill_points: 12,
            pages_per_txn: 8,
            page_size: 256,
            pool_bytes: 8 * 256,
        }
    }
}

/// One run of the interleaved-transaction kill sweep: two transactions
/// update disjoint page sets in alternation; at the kill-point the winner
/// commits and the process "dies" with the loser still in flight (its
/// handle is leaked so no rollback code runs, and every unsynced page
/// write is lost — exactly what a power cut leaves behind). With `flush`,
/// every dirty frame is written back and fsynced first, so the loser's
/// pages reach the disk durably and only the log can undo them. Recovery
/// must then produce the committed-only state: every winner page holds
/// its commit-time value, every loser page its pre-transaction baseline.
fn txn_torture_once(
    cfg: &TxnTortureConfig,
    kill_after: u64,
    flush: bool,
) -> xmldb_storage::Result<KillPointOutcome> {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let env_config = EnvConfig {
        page_size: cfg.page_size,
        pool_bytes: cfg.pool_bytes,
    };
    let pages = cfg.pages_per_txn;
    // Model of a page's first byte: baseline 0x10+i, winner writes
    // 0x40+round, loser writes 0x80+round.
    let mut committed: Vec<u8> = (0..2 * pages).map(|i| 0x10 + i as u8).collect();
    {
        let faults = FaultState::new();
        let env = faulted_env(&dir, env_config.clone(), &faults)?;
        // The baseline is durable.
        let f = env.autocommit(|| {
            let f = env.create_file("bank")?;
            for i in 0..2 * pages {
                let p = env.allocate_page(f)?;
                env.with_page_mut(f, p, |d| d[0] = 0x10 + i as u8)?;
            }
            Ok::<_, xmldb_storage::StorageError>(f)
        })?;
        let winner = env.begin_txn();
        let loser = env.begin_txn();
        for round in 0..kill_after.min(cfg.rounds) {
            {
                let _s = winner.install();
                let p = xmldb_storage::PageId(round % pages);
                env.with_page_mut(f, p, |d| d[0] = 0x40 + round as u8)?;
            }
            {
                let _s = loser.install();
                let p = xmldb_storage::PageId(pages + round % pages);
                env.with_page_mut(f, p, |d| d[0] = 0x80 + round as u8)?;
            }
        }
        winner.commit()?;
        for round in 0..kill_after.min(cfg.rounds) {
            committed[(round % pages) as usize] = 0x40 + round as u8;
        }
        if flush {
            env.flush()?;
        }
        // The crash: leak the loser (no Drop, no rollback — its fate is
        // decided purely by WAL replay) and drop the environment.
        std::mem::forget(loser);
        faults.kill_now();
        drop(env);
    }

    let env = Env::open_dir(&dir, env_config)?;
    let report = env.recovery_report().cloned().unwrap_or_default();
    let mut divergence = None;
    let f = env.open_file("bank")?;
    for (i, &want) in committed.iter().enumerate() {
        let got = env.with_page(f, xmldb_storage::PageId(i as u64), |d| d[0])?;
        if got != want {
            divergence = Some(format!(
                "page {i}: got {got:#04x}, committed state is {want:#04x}"
            ));
            break;
        }
    }
    // The baseline's commit, and the winner's once it wrote anything.
    if report.txns_committed < 1 + usize::from(kill_after > 0) {
        divergence =
            divergence.or_else(|| Some("recovery missed a committed transaction".to_string()));
    }
    divergence = divergence.or_else(|| assert_quiescent(&env));
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(KillPointOutcome {
        kill_after,
        inserts_before_kill: kill_after.min(cfg.rounds),
        committed_keys: committed.len(),
        pages_redone: report.pages_redone,
        pages_undone: report.pages_undone,
        torn_bytes: report.torn_bytes,
        divergence,
    })
}

/// Sweeps the interleaved-transaction kill schedule: every kill-point must
/// recover to the exact committed-only state.
pub fn txn_torture(cfg: &TxnTortureConfig) -> xmldb_storage::Result<TortureReport> {
    let mut report = TortureReport::default();
    let step = (cfg.rounds / cfg.kill_points.max(1)).max(1);
    for k in 0..cfg.kill_points {
        // Every other kill-point flushes before the crash.
        report
            .outcomes
            .push(txn_torture_once(cfg, k * step, k % 2 == 1)?);
    }
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
                    let f = env.create_file("t")?;
                    for i in 0..20u64 {
                        let p = env.allocate_page(f)?;
                        env.with_page_mut(f, p, |d| d[0] = i as u8)?;
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
                let got = env.with_page(f, xmldb_storage::PageId(i), |d| d[0])?;
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

/// Result of a concurrent commit stress run.
#[derive(Debug, Clone)]
pub struct CommitStressReport {
    /// Committer threads.
    pub threads: usize,
    /// Successful commits across all threads.
    pub commits: u64,
    /// Deadlock-victim retries along the way.
    pub deadlocks: u64,
    /// WAL fsyncs issued during the stress window.
    pub fsyncs: u64,
    /// Sum every page counter should reach (2 increments per commit).
    pub expected_sum: u64,
    /// Sum the page counters actually reached.
    pub actual_sum: u64,
    /// Same sum re-read after close + recovery.
    pub recovered_sum: u64,
}

impl CommitStressReport {
    /// True iff every committed increment is present, in memory and after
    /// recovery.
    pub fn no_lost_updates(&self) -> bool {
        self.actual_sum == self.expected_sum && self.recovered_sum == self.expected_sum
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
            "commit stress: {} threads, {} commits, {} deadlock retries, {} fsyncs ({:.3}/commit), sum {}/{} (recovered {})",
            self.threads,
            self.commits,
            self.deadlocks,
            self.fsyncs,
            self.fsyncs_per_commit(),
            self.actual_sum,
            self.expected_sum,
            self.recovered_sum,
        )
    }
}

fn read_counter(env: &Env, f: xmldb_storage::FileId, p: u64) -> xmldb_storage::Result<u64> {
    env.with_page(f, xmldb_storage::PageId(p), |d| {
        u64::from_le_bytes(d[..8].try_into().unwrap())
    })
}

/// Hammers one environment with `threads` concurrent committers, each
/// running `ops` increment transactions over two of four shared counter
/// pages — taken in *opposite orders* by alternating threads, so the sweep
/// provokes real deadlocks and exercises victim retry. Grades the two
/// tentpole acceptance criteria: zero lost updates (every committed
/// increment present, in memory and after recovery) and group commit
/// (fsyncs strictly fewer than commits once committers overlap).
pub fn commit_stress(threads: usize, ops: u64) -> xmldb_storage::Result<CommitStressReport> {
    // Enough shared pages that most transaction pairs are disjoint (their
    // commits overlap, which is what group commit batches) while
    // collisions — and deadlocks, via the opposite lock orders — still
    // happen many times per run.
    const PAGES: u64 = 32;
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let env_config = EnvConfig {
        page_size: 256,
        pool_bytes: 64 * 256,
    };
    let faults = FaultState::new();
    let (commits, deadlocks, fsyncs, actual_sum) = {
        let env = faulted_env(&dir, env_config.clone(), &faults)?;
        let f = env.autocommit(|| {
            let f = env.create_file("counters")?;
            for _ in 0..PAGES {
                env.allocate_page(f)?;
            }
            Ok::<_, xmldb_storage::StorageError>(f)
        })?;
        let fsyncs_before = env.io_stats().wal_syncs;
        let results: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let env = env.clone();
                    s.spawn(move || {
                        let mut commits = 0u64;
                        let mut deadlocks = 0u64;
                        for i in 0..ops {
                            // Two distinct pages, opposite orders by thread
                            // parity: a classic deadlock-prone schedule.
                            let a = (t as u64 * 7 + i * 13) % PAGES;
                            let mut b = (t as u64 * 11 + i * 17 + 1) % PAGES;
                            if b == a {
                                b = (b + 1) % PAGES;
                            }
                            let (first, second) = if t % 2 == 0 {
                                (a.min(b), a.max(b))
                            } else {
                                (a.max(b), a.min(b))
                            };
                            loop {
                                let txn = env.begin_txn();
                                let attempt = (|| {
                                    let _scope = txn.install();
                                    for &p in &[first, second] {
                                        env.with_page_mut(f, xmldb_storage::PageId(p), |d| {
                                            let v = u64::from_le_bytes(d[..8].try_into().unwrap());
                                            d[..8].copy_from_slice(&(v + 1).to_le_bytes());
                                        })?;
                                    }
                                    Ok(())
                                })();
                                match attempt.and_then(|()| txn.commit()) {
                                    Ok(()) => {
                                        commits += 1;
                                        break;
                                    }
                                    Err(xmldb_storage::StorageError::Deadlock { .. }) => {
                                        // Victim: back off briefly (staggered
                                        // per thread so repeat collisions
                                        // de-synchronize), then retry fresh.
                                        deadlocks += 1;
                                        std::thread::sleep(std::time::Duration::from_micros(
                                            20 * (t as u64 + 1),
                                        ));
                                    }
                                    Err(e) => panic!("commit stress failed: {e}"),
                                }
                            }
                        }
                        (commits, deadlocks)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let commits: u64 = results.iter().map(|r| r.0).sum();
        let deadlocks: u64 = results.iter().map(|r| r.1).sum();
        let fsyncs = env.io_stats().wal_syncs - fsyncs_before;
        let mut sum = 0u64;
        for p in 0..PAGES {
            sum += read_counter(&env, f, p)?;
        }
        // Power cut WITHOUT flush: durability of the committed
        // increments must come from the WAL alone.
        faults.kill_now();
        (commits, deadlocks, fsyncs, sum)
    };
    let env = Env::open_dir(&dir, env_config)?;
    let f = env.open_file("counters")?;
    let mut recovered_sum = 0u64;
    for p in 0..PAGES {
        recovered_sum += read_counter(&env, f, p)?;
    }
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(CommitStressReport {
        threads,
        commits,
        deadlocks,
        fsyncs,
        expected_sum: 2 * commits,
        actual_sum,
        recovered_sum,
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
    /// Buffer-pool budget in bytes — small, so loads in flight are stolen
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
/// the oldest committed document, or the same drop inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocOp {
    Load,
    TxnLoad { commit: bool },
    Drop,
    TxnDrop { commit: bool },
}

/// The document sweep's operation cycle.
const DOC_OPS: [DocOp; 7] = [
    DocOp::Load,
    DocOp::TxnLoad { commit: true },
    DocOp::Load,
    DocOp::Drop,
    DocOp::TxnLoad { commit: false },
    DocOp::TxnDrop { commit: true },
    DocOp::TxnDrop { commit: false },
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

/// Runs one operation. Returns the change to the committed model: a
/// document added, removed, or nothing.
fn run_doc_op(
    db: &Database,
    op: DocOp,
    j: usize,
    committed: &BTreeMap<String, String>,
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
            match run_doc_op(&db, DOC_OPS[j % DOC_OPS.len()], j, &committed) {
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

    let db = Database::open_dir(&dir, env_config)?;
    let report = db.env().recovery_report().cloned().unwrap_or_default();
    let divergence = verify_catalog(&db, &dir, &committed).or_else(|| assert_quiescent(db.env()));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = KillPointOutcome {
        kill_after: kill_after.unwrap_or(writes),
        inserts_before_kill: ops_before_kill as u64,
        committed_keys: committed.len(),
        pages_redone: report.pages_redone,
        pages_undone: report.pages_undone,
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

    #[test]
    fn bounded_kill_point_sweep_recovers() {
        let cfg = TortureConfig {
            inserts: 300,
            commit_every: 25,
            first_kill: 2,
            kill_stride: 11,
            kill_points: 8,
            ..TortureConfig::default()
        };
        let report = crash_torture(&cfg).unwrap();
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.all_recovered(), "{report}");
        // The schedule must actually have killed mid-workload somewhere.
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.inserts_before_kill < cfg.inserts),
            "no kill-point fired before the workload finished: {report}"
        );
    }

    /// The full acceptance sweep: 1 000 inserts, 20 kill-points, plus a
    /// torn-write schedule. Run by the CI crash-torture step.
    #[test]
    #[ignore = "extended sweep; CI runs it explicitly with --ignored"]
    fn full_kill_point_sweep_1k() {
        let report = crash_torture(&TortureConfig::default()).unwrap();
        assert_eq!(report.outcomes.len(), 20);
        assert!(report.all_recovered(), "{report}");
        let torn = crash_torture(&TortureConfig {
            torn_writes: true,
            kill_points: 10,
            ..TortureConfig::default()
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

    #[test]
    fn bounded_interleaved_txn_sweep_recovers() {
        let cfg = TxnTortureConfig {
            rounds: 12,
            kill_points: 6,
            ..TxnTortureConfig::default()
        };
        let report = txn_torture(&cfg).unwrap();
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.all_recovered(), "{report}");
        // The loser's stolen pages must have given recovery real undo work
        // somewhere in the schedule, or the sweep is vacuous.
        assert!(
            report.outcomes.iter().any(|o| o.pages_undone > 0),
            "no kill-point exercised undo: {report}"
        );
    }

    /// The full interleaved-transaction acceptance sweep (ISSUE 6): every
    /// kill-point recovers to exact committed-only state. Run by CI.
    #[test]
    #[ignore = "extended sweep; CI runs it explicitly with --ignored"]
    fn full_interleaved_txn_kill_sweep() {
        let report = txn_torture(&TxnTortureConfig::default()).unwrap();
        assert_eq!(report.outcomes.len(), 12);
        assert!(report.all_recovered(), "{report}");
        assert!(
            report.outcomes.iter().any(|o| o.pages_undone > 0),
            "no kill-point exercised undo: {report}"
        );
    }

    #[test]
    fn checkpoint_crash_window_states_recover_as_empty() {
        let report = checkpoint_window_torture().unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.all_clean(), "{report}");
    }

    #[test]
    fn bounded_commit_stress_keeps_every_update() {
        let report = commit_stress(4, 15).unwrap();
        assert_eq!(report.commits, 4 * 15, "{report}");
        assert!(report.no_lost_updates(), "{report}");
    }

    /// The 16-thread acceptance stress (ISSUE 6): zero lost updates and
    /// strictly fewer than one fsync per commit. Run by CI.
    #[test]
    #[ignore = "extended stress; CI runs it explicitly with --ignored"]
    fn full_commit_stress_16_threads() {
        let report = commit_stress(16, 25).unwrap();
        eprintln!("{report}");
        assert_eq!(report.commits, 16 * 25, "{report}");
        assert!(report.no_lost_updates(), "{report}");
        assert!(
            report.fsyncs < report.commits,
            "group commit not observable: {report}"
        );
    }

    #[test]
    fn torn_write_sweep_recovers() {
        let cfg = TortureConfig {
            inserts: 200,
            commit_every: 20,
            first_kill: 3,
            kill_stride: 17,
            kill_points: 4,
            torn_writes: true,
            ..TortureConfig::default()
        };
        let report = crash_torture(&cfg).unwrap();
        assert!(report.all_recovered(), "{report}");
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
            report
                .outcomes
                .iter()
                .any(|o| o.inserts_before_kill < DocTortureConfig::default().ops as u64),
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
