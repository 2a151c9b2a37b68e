//! Durability tests: WAL recovery under injected faults.
//!
//! Regression coverage for the storage write path's durability bugs (each
//! `reopen_after_*` test is one bug), plus a property test interleaving
//! inserts, deletes and flushes with injected I/O errors: every operation
//! either reports the error or leaves the tree readable, and reopening
//! the environment always recovers exactly the last committed state.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmldb_storage::{BTree, Env, EnvConfig, FaultBackend, FaultState, KillMode, StorageError};

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

/// Tiny pages and a tiny pool: splits and eviction steals from the start.
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

/// Kill mid-workload, reopen, and the tree must equal the last committed
/// (flushed) state — the end-to-end WAL guarantee at the storage level.
#[test]
fn reopen_after_kill_recovers_committed_prefix() {
    let dir = scratch("kill");
    for kill_at in [3u64, 9, 17, 40] {
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultState::new();
        let mut committed = BTreeMap::new();
        {
            let env = faulted_env(&dir, &faults);
            let mut tree = BTree::create(&env, "t").unwrap();
            let mut model = BTreeMap::new();
            faults.arm_kill(kill_at, KillMode::BeforeWrite);
            for i in 0..400u64 {
                if tree.insert(&key(i), &value(i)).is_err() {
                    break;
                }
                model.insert(key(i), value(i));
                if (i + 1) % 25 == 0 {
                    if env.flush().is_err() {
                        break;
                    }
                    committed = model.clone();
                }
            }
            assert!(faults.is_killed(), "kill-point {kill_at} never fired");
        }
        let env = Env::open_dir(&dir, config()).unwrap();
        if committed.is_empty() {
            // Nothing was ever committed; the tree may not even open.
            continue;
        }
        let tree = BTree::open(&env, "t").unwrap();
        assert_eq!(
            tree_contents(&tree).unwrap(),
            committed,
            "kill-point {kill_at}: recovered tree diverges from committed state"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn page write at the kill-point: recovery must still restore the
/// committed images (the torn page is rolled back from its before-image).
#[test]
fn reopen_after_torn_write_recovers() {
    let dir = scratch("torn");
    let faults = FaultState::new();
    let committed;
    {
        let env = faulted_env(&dir, &faults);
        let mut tree = BTree::create(&env, "t").unwrap();
        let mut model = BTreeMap::new();
        for i in 0..60u64 {
            tree.insert(&key(i), &value(i)).unwrap();
            model.insert(key(i), value(i));
        }
        env.flush().unwrap();
        committed = model.clone();
        faults.arm_kill(2, KillMode::TornWrite);
        for i in 60..400u64 {
            if tree.insert(&key(i), &value(i)).is_err() || env.flush().is_err() {
                break;
            }
        }
        assert!(faults.is_killed());
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let report = env.recovery_report().unwrap().clone();
    let tree = BTree::open(&env, "t").unwrap();
    let contents = tree_contents(&tree).unwrap();
    // The committed prefix survives; a flush attempted after the kill may
    // have committed more, but never less.
    for (k, v) in &committed {
        assert_eq!(contents.get(k), Some(v), "committed key lost ({report:?})");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug regression: a failed `Backend::sync` must leave the dirty bits set
/// so a retried flush rewrites (and re-syncs) the page instead of silently
/// losing the write.
#[test]
fn failed_sync_does_not_lose_writes() {
    let dir = scratch("sync");
    let faults = FaultState::new();
    {
        let env = faulted_env(&dir, &faults);
        let mut tree = BTree::create(&env, "t").unwrap();
        tree.insert(b"k", b"v").unwrap();
        faults.fail_next_sync();
        let err = env.flush().unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        // Retry: the page is still dirty, so it is written and synced now.
        env.flush().unwrap();
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let tree = BTree::open(&env, "t").unwrap();
    assert_eq!(tree.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug regression: a crash mid-extension leaves a torn tail; the file must
/// reopen (rounded down to whole pages) instead of failing `Corrupt`.
#[test]
fn reopen_after_torn_extension_recovers() {
    let dir = scratch("extend");
    {
        let env = Env::open_dir(&dir, config()).unwrap();
        let mut tree = BTree::create(&env, "t").unwrap();
        for i in 0..40u64 {
            tree.insert(&key(i), &value(i)).unwrap();
        }
        env.flush().unwrap();
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
        let mut tree = BTree::create(&env, "t").unwrap();
        for i in 0..50u64 {
            tree.insert(&key(i), &value(i)).unwrap();
        }
        env.flush().unwrap();
        faults.arm_kill(4, KillMode::BeforeWrite);
        for i in 50..400u64 {
            if tree.insert(&key(i), &value(i)).is_err() {
                break;
            }
            let _ = env.flush();
            if faults.is_killed() {
                break;
            }
        }
    }
    let env = Env::open_dir(&dir, config()).unwrap();
    let report = env.recovery_report().unwrap();
    assert!(report.committed, "a commit marker was on disk");
    assert!(
        report.pages_redone > 0 || report.pages_undone > 0,
        "recovery had work to do: {report:?}"
    );
    // A clean reopen after the recovery is itself clean.
    drop(env);
    let env = Env::open_dir(&dir, config()).unwrap();
    assert!(env.recovery_report().unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

#[derive(Debug, Clone)]
enum FaultOp {
    Insert(u64),
    Delete(u64),
    Get(u64),
    Flush,
    FailNextWrite,
    FailNextSync,
}

fn op_strategy() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        5 => (0u64..120).prop_map(FaultOp::Insert),
        1 => (0u64..120).prop_map(FaultOp::Delete),
        2 => (0u64..120).prop_map(FaultOp::Get),
        1 => Just(FaultOp::Flush),
        1 => Just(FaultOp::FailNextWrite),
        1 => Just(FaultOp::FailNextSync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaves tree operations with injected I/O errors. Every
    /// operation either returns an error or behaves per the model; after
    /// any error the environment is "crashed" (dropped) and reopened, and
    /// the recovered tree must equal the last committed state exactly.
    #[test]
    fn faults_never_corrupt_committed_state(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let dir = scratch("prop");
        let faults = FaultState::new();
        let mut env = faulted_env(&dir, &faults);
        let mut tree = Some(BTree::create(&env, "t").unwrap());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut committed: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut crashed = false;

        for op in &ops {
            if crashed {
                // A power cut, then reopen: recovery must restore exactly
                // the committed state.
                faults.kill_now();
                faults.disarm();
                drop(tree.take());
                env = faulted_env(&dir, &faults);
                if committed.is_empty() {
                    match BTree::open(&env, "t") {
                        Ok(t) => {
                            prop_assert_eq!(tree_contents(&t).unwrap(), committed.clone());
                            tree = Some(t);
                        }
                        Err(_) => {
                            // Never committed: recreate from scratch.
                            if let Ok(id) = env.open_file("t") {
                                let _ = env.remove_file(id);
                            }
                            tree = Some(BTree::create(&env, "t").unwrap());
                        }
                    }
                } else {
                    let t = BTree::open(&env, "t").unwrap();
                    prop_assert_eq!(tree_contents(&t).unwrap(), committed.clone());
                    tree = Some(t);
                }
                model = committed.clone();
                crashed = false;
            }
            let t = tree.as_mut().unwrap();
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
                FaultOp::Flush => match env.flush() {
                    Ok(()) => committed = model.clone(),
                    Err(_) => crashed = true,
                },
                FaultOp::FailNextWrite => faults.fail_next_write(),
                FaultOp::FailNextSync => faults.fail_next_sync(),
            }
        }

        // Final verdict: power cut, recover, compare to committed.
        faults.kill_now();
        drop(tree.take());
        drop(env);
        let env = Env::open_dir(&dir, config()).unwrap();
        match BTree::open(&env, "t") {
            Ok(t) => prop_assert_eq!(tree_contents(&t).unwrap(), committed),
            Err(_) => prop_assert!(committed.is_empty(), "committed data must reopen"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
