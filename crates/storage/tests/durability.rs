//! Durability tests: WAL recovery under injected faults.
//!
//! A committed file never changes, so every workload here commits whole
//! versions: each commit builds the tree `t{n}` afresh from the model and
//! drops `t{n-1}` in the same transaction. Regression coverage for the
//! storage write path's durability bugs (each `reopen_after_*` test is one
//! bug), plus a property test interleaving inserts, deletes and commits
//! with injected I/O errors: every operation either reports the error or
//! leaves the tree readable, and reopening the environment always recovers
//! exactly the last committed version — and no other.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmldb_storage::{BTree, Env, EnvConfig, FaultBackend, FaultState, KillMode, StorageError, Txn};

/// Unique scratch directory per test invocation.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "saardb-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny pages and a tiny pool: splits and evictions from the start.
fn config() -> EnvConfig {
    EnvConfig {
        page_size: 256,
        pool_bytes: 8 * 256,
    }
}

fn faulted_env(dir: &PathBuf, faults: &Arc<FaultState>) -> Env {
    let faults = Arc::clone(faults);
    Env::open_dir_with_decorator(
        dir,
        config(),
        Arc::new(move |_name, inner| Arc::new(FaultBackend::new(inner, Arc::clone(&faults))) as _),
    )
    .unwrap()
}

/// Reads the whole tree into a map (readability probe + content check).
fn tree_contents(tree: &BTree) -> xmldb_storage::Result<BTreeMap<Vec<u8>, Vec<u8>>> {
    let mut out = BTreeMap::new();
    tree.scan(|k, v| {
        out.insert(k.to_vec(), v.to_vec());
        true
    })?;
    Ok(out)
}

fn key(i: u64) -> Vec<u8> {
    format!("key{:06}", (i * 7919) % 1_000_000).into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    format!("value-{i}-{}", "x".repeat((i % 23) as usize)).into_bytes()
}

/// Version `n` of the tree.
fn version(n: u64) -> String {
    format!("t{n}")
}

/// In the transaction installed on this thread (or its own): builds
/// version `n` holding `model`, and drops version `n - 1` if it exists.
fn build_version(
    env: &Env,
    n: u64,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
) -> xmldb_storage::Result<BTree> {
    env.autocommit(|| {
        let mut tree = BTree::create(env, &version(n))?;
        for (k, v) in model {
            tree.insert(k, v)?;
        }
        if n > 0 && env.file_exists(&version(n - 1)) {
            env.remove_file(env.open_file(&version(n - 1))?)?;
        }
        Ok(tree)
    })
}

/// The recovered environment holds exactly version `n` with `committed`
/// in it (or, with nothing committed, no version at all).
fn assert_recovered(env: &Env, n: Option<u64>, committed: &BTreeMap<Vec<u8>, Vec<u8>>) {
    let want: Vec<String> = n.map(version).into_iter().collect();
    assert_eq!(env.committed_files(), want, "exactly the last version");
    if let Some(n) = n {
        let tree = BTree::open(env, &version(n)).unwrap();
        assert_eq!(&tree_contents(&tree).unwrap(), committed);
    }
}

/// Kill mid-workload, reopen, and the tree must equal the last committed
/// version — the end-to-end WAL guarantee at the storage level.
#[test]
fn reopen_after_kill_recovers_committed_prefix() {
    let dir = scratch("kill");
    for kill_at in [3u64, 9, 17, 40, 90] {
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultState::new();
        let mut committed = (None, BTreeMap::new());
        {
            let env = faulted_env(&dir, &faults);
            let mut model = BTreeMap::new();
            faults.arm_kill(kill_at, KillMode::BeforeWrite);
            for i in 0..400u64 {
                model.insert(key(i), value(i));
                if (i + 1) % 25 == 0 {
                    let n = (i + 1) / 25;
                    if build_version(&env, n, &model).is_err() {
                        break;
                    }
                    committed = (Some(n), model.clone());
                }
            }
            assert!(faults.is_killed(), "kill-point {kill_at} never fired");
        }
        let env = Env::open_dir(&dir, config()).unwrap();
        assert_recovered(&env, committed.0, &committed.1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn page write at the kill-point: recovery must still restore the
/// last committed version (the torn file was never committed).
#[test]
fn reopen_after_torn_write_recovers() {
    let dir = scratch("torn");
    let faults = FaultState::new();
    let mut model = BTreeMap::new();
    for i in 0..60u64 {
        model.insert(key(i), value(i));
    }
    let mut committed = (Some(1), model.clone());
    {
        let env = faulted_env(&dir, &faults);
        build_version(&env, 1, &model).unwrap();
        faults.arm_kill(2, KillMode::TornWrite);
        for n in 2..20u64 {
            model.insert(key(60 + n), value(60 + n));
            if build_version(&env, n, &model).is_err() {
                break;
            }
            committed = (Some(n), model.clone());
        }
        assert!(faults.is_killed());
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    assert_recovered(&env, committed.0, &committed.1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug regression: a failed `Backend::sync` must leave the file dirty so
/// a retried commit re-syncs it instead of silently losing the write —
/// which the checkpoint after it makes unrecoverable. The failed sync
/// drops the unsynced write; the retry rewrites it from the pool.
#[test]
fn failed_sync_does_not_lose_writes() {
    let dir = scratch("sync");
    let faults = FaultState::new();
    {
        let env = faulted_env(&dir, &faults);
        let txn: Txn = env.begin_txn();
        {
            let _s = txn.install();
            let mut tree = BTree::create(&env, "t").unwrap();
            tree.insert(b"k", b"v").unwrap();
        }
        faults.fail_next_sync();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        // Retry: the file is still dirty, so it is synced now, and the
        // checkpoint drops everything but the catalog.
        txn.commit().unwrap();
        env.checkpoint().unwrap();
        faults.kill_now();
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let tree = BTree::open(&env, "t").unwrap();
    assert_eq!(tree.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed fsync may drop the writes it did not flush (the fault plan's
/// failed sync does). A retry can rewrite only the pages still in the
/// pool: once the pool has evicted one, a retried commit that fsynced
/// cleanly would publish a file with pages missing. The file can no longer
/// commit; its transaction rolls back.
#[test]
fn failed_sync_after_an_eviction_cannot_commit() {
    let dir = scratch("sync-evicted");
    let faults = FaultState::new();
    {
        let env = faulted_env(&dir, &faults);
        let txn: Txn = env.begin_txn();
        {
            let _s = txn.install();
            let mut tree = BTree::create(&env, "t").unwrap();
            for i in 0..200 {
                tree.insert(&key(i), &value(i)).unwrap();
            }
        }
        faults.fail_next_sync();
        let first = txn.commit().unwrap_err();
        assert!(matches!(first, StorageError::FaultInjected(_)), "{first}");
        let retry = txn.commit().unwrap_err();
        assert_eq!(retry.to_string(), first.to_string(), "the failure is final");
        txn.rollback().unwrap();
        assert!(env.committed_files().is_empty());
        faults.kill_now();
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    assert!(env.committed_files().is_empty());
    assert!(!dir.join("t.sdb").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug regression: a crash mid-extension leaves a torn tail; the file must
/// reopen (rounded down to whole pages) instead of failing `Corrupt`.
#[test]
fn reopen_after_torn_extension_recovers() {
    let dir = scratch("extend");
    {
        let env = Env::open_dir(&dir, config()).unwrap();
        env.autocommit(|| {
            let mut tree = BTree::create(&env, "t")?;
            for i in 0..40u64 {
                tree.insert(&key(i), &value(i))?;
            }
            Ok::<_, StorageError>(())
        })
        .unwrap();
    }
    // Simulate the torn extension directly: append a partial page.
    let path = dir.join("t.sdb");
    let len = std::fs::metadata(&path).unwrap().len();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xEE; 100]);
    std::fs::write(&path, &bytes).unwrap();
    let env = Env::open_dir(&dir, config()).unwrap();
    let tree = BTree::open(&env, "t").unwrap();
    for i in 0..40u64 {
        assert_eq!(tree.get(&key(i)).unwrap(), Some(value(i)));
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        len,
        "torn tail trimmed back to whole pages"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The environment reports what recovery did.
#[test]
fn recovery_report_surfaces_through_env() {
    let dir = scratch("report");
    let faults = FaultState::new();
    {
        let env = faulted_env(&dir, &faults);
        let mut model = BTreeMap::new();
        for i in 0..50u64 {
            model.insert(key(i), value(i));
        }
        build_version(&env, 1, &model).unwrap();
        // The crash lands while version 2 is built: the transaction is
        // leaked, so only recovery decides its files' fate.
        let txn = env.begin_txn();
        {
            let _s = txn.install();
            build_version(&env, 2, &model).unwrap();
        }
        faults.kill_now();
        std::mem::forget(txn);
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let report = env.recovery_report().unwrap();
    assert!(report.txns_committed > 0, "a commit record was on disk");
    assert!(
        report.files_deleted > 0,
        "the version in flight was deleted: {report:?}"
    );
    // A clean reopen after the recovery is itself clean.
    drop(env);
    let env = Env::open_dir(&dir, config()).unwrap();
    assert!(env.recovery_report().unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log holding a record of a retired format (here a 0x01 frame, its
/// checksum intact, followed by a commit) is refused at open with a typed
/// error, and every file stays where it was — not cut off as a torn tail,
/// which would delete the files only the later records list.
#[test]
fn log_with_a_retired_record_kind_is_refused_at_open() {
    let dir = scratch("retired");
    {
        let env = Env::open_dir(&dir, config()).unwrap();
        env.autocommit(|| BTree::create(&env, "a").map(drop))
            .unwrap();
    }
    std::fs::write(dir.join("b.sdb"), vec![0u8; config().page_size]).unwrap();
    let frame = |payload: &[u8]| {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&xmldb_storage::crc32(payload).to_le_bytes());
        f.extend_from_slice(payload);
        f
    };
    // 0x08 commit adding "b" (1 page), dropping nothing.
    let mut commit = vec![0x08, 1, 0, 0, 0, 1, 0, b'b'];
    commit.extend_from_slice(&1u64.to_le_bytes());
    commit.extend_from_slice(&0u32.to_le_bytes());
    let log_path = dir.join(xmldb_storage::wal::WAL_FILE);
    let mut log = std::fs::read(&log_path).unwrap();
    log.extend(frame(&[0x01, 0, 0, 0, 0, 0, 0, 0, 0]));
    log.extend(frame(&commit));
    std::fs::write(&log_path, &log).unwrap();
    let before: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    let err = Env::open_dir(&dir, config()).unwrap_err();
    assert!(
        matches!(err, StorageError::UnknownLogRecord { tag: 0x01, .. }),
        "{err}"
    );
    let after: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(before.len(), after.len(), "{before:?} → {after:?}");
    assert!(dir.join("a.sdb").exists() && dir.join("b.sdb").exists());
    assert_eq!(std::fs::read(&log_path).unwrap(), log, "log untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[derive(Debug, Clone)]
enum FaultOp {
    Insert(u64),
    Delete(u64),
    Get(u64),
    Commit,
    FailNextWrite,
    FailNextSync,
}

fn op_strategy() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        5 => (0u64..120).prop_map(FaultOp::Insert),
        1 => (0u64..120).prop_map(FaultOp::Delete),
        2 => (0u64..120).prop_map(FaultOp::Get),
        1 => Just(FaultOp::Commit),
        1 => Just(FaultOp::FailNextWrite),
        1 => Just(FaultOp::FailNextSync),
    ]
}

/// Begins the transaction that builds version `n` from `committed`.
fn begin_version(
    env: &Env,
    n: u64,
    committed: &BTreeMap<Vec<u8>, Vec<u8>>,
) -> xmldb_storage::Result<(Txn, BTree)> {
    let txn = env.begin_txn();
    let tree = {
        let _s = txn.install();
        build_version(env, n, committed)?
    };
    Ok((txn, tree))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaves tree operations with injected I/O errors. Every
    /// operation either returns an error or behaves per the model; after
    /// any error the environment is "crashed" (dropped) and reopened, and
    /// the recovered version must equal the last committed state exactly.
    /// Each transaction builds the next version, which `Commit` commits.
    #[test]
    fn faults_never_corrupt_committed_state(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let dir = scratch("prop");
        let faults = FaultState::new();
        let mut env = faulted_env(&dir, &faults);
        let mut committed: (Option<u64>, BTreeMap<Vec<u8>, Vec<u8>>) = (None, BTreeMap::new());
        let mut next = 0u64;
        let mut open = begin_version(&env, next, &committed.1).ok();
        let mut model = committed.1.clone();
        let mut crashed = open.is_none();

        for op in &ops {
            if crashed {
                // A power cut, then reopen: recovery must restore exactly
                // the committed version.
                faults.kill_now();
                drop(open.take());
                faults.disarm();
                env = faulted_env(&dir, &faults);
                let want: Vec<String> = committed.0.map(version).into_iter().collect();
                prop_assert_eq!(env.committed_files(), want);
                if let Some(n) = committed.0 {
                    let t = BTree::open(&env, &version(n)).unwrap();
                    prop_assert_eq!(tree_contents(&t).unwrap(), committed.1.clone());
                }
                next = committed.0.map_or(0, |n| n + 1);
                open = begin_version(&env, next, &committed.1).ok();
                model = committed.1.clone();
                crashed = open.is_none();
                if crashed {
                    continue;
                }
            }
            let (txn, t) = open.as_mut().unwrap();
            let _s = txn.install();
            match op {
                FaultOp::Insert(i) => match t.insert(&key(*i), &value(*i)) {
                    Ok(_) => { model.insert(key(*i), value(*i)); }
                    Err(_) => crashed = true,
                },
                FaultOp::Delete(i) => match t.delete(&key(*i)) {
                    Ok(_) => { model.remove(&key(*i)); }
                    Err(_) => crashed = true,
                },
                FaultOp::Get(i) => match t.get(&key(*i)) {
                    Ok(v) => prop_assert_eq!(v, model.get(&key(*i)).cloned()),
                    Err(_) => crashed = true,
                },
                FaultOp::Commit => match txn.commit() {
                    Ok(()) => {
                        committed = (Some(next), model.clone());
                        next += 1;
                        drop(_s);
                        open = begin_version(&env, next, &committed.1).ok();
                        crashed = open.is_none() || env.flush().is_err();
                    }
                    Err(_) => crashed = true,
                },
                FaultOp::FailNextWrite => faults.fail_next_write(),
                FaultOp::FailNextSync => faults.fail_next_sync(),
            }
        }

        // Final verdict: power cut, recover, compare to committed.
        faults.kill_now();
        drop(open.take());
        drop(env);
        let env = Env::open_dir(&dir, config()).unwrap();
        let want: Vec<String> = committed.0.map(version).into_iter().collect();
        prop_assert_eq!(env.committed_files(), want);
        if let Some(n) = committed.0 {
            let t = BTree::open(&env, &version(n)).unwrap();
            prop_assert_eq!(tree_contents(&t).unwrap(), committed.1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
