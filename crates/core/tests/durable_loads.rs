//! What making a document durable costs, and loads and drops inside
//! transactions.
//!
//! Data-file fsyncs are counted by the fault-injecting backend, which
//! sees every sync of a wrapped file and counts the ones that flushed
//! something; log fsyncs by the environment's `wal_syncs` counter.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmldb_core::Database;
use xmldb_storage::{Env, EnvConfig, FaultBackend, FaultState, PageId};

const DOC: &str = "<lib><b><t>alpha</t></b><b><t>beta</t></b></lib>";

/// Clustered, label, parent and text indexes plus the statistics file.
const FILES_PER_DOC: u64 = 5;

fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("saardb-durable-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn faulted_db(dir: &PathBuf, faults: &Arc<FaultState>) -> Database {
    let state = Arc::clone(faults);
    let env = Env::open_dir_with_decorator(
        dir,
        EnvConfig::default(),
        Arc::new(move |_name, inner| Arc::new(FaultBackend::new(inner, Arc::clone(&state))) as _),
    )
    .unwrap();
    Database::from_env(env)
}

/// (data-file fsyncs, log fsyncs) so far.
fn syncs(db: &Database, faults: &FaultState) -> (u64, u64) {
    (faults.syncs(), db.env().io_stats().wal_syncs)
}

fn delta(before: (u64, u64), after: (u64, u64)) -> (u64, u64) {
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn flush_after_no_writes_fsyncs_no_data_file() {
    let dir = scratch("idle");
    let faults = FaultState::new();
    let db = faulted_db(&dir, &faults);
    for i in 0..4 {
        db.load_document(&format!("d{i}"), DOC).unwrap();
    }
    let before = syncs(&db, &faults);
    db.flush().unwrap();
    assert_eq!(
        delta(before, syncs(&db, &faults)),
        (0, 1),
        "a flush with nothing written fsyncs only the log"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untransacted_load_fsyncs_its_new_files_and_the_log_once() {
    let dir = scratch("load");
    let faults = FaultState::new();
    let db = faulted_db(&dir, &faults);
    for i in 0..3 {
        db.load_document(&format!("d{i}"), DOC).unwrap();
    }
    let before = syncs(&db, &faults);
    db.load_document("new", DOC).unwrap();
    assert_eq!(delta(before, syncs(&db, &faults)), (FILES_PER_DOC, 1));
    // A drop is one log record and one log fsync.
    let before = syncs(&db, &faults);
    db.drop_document("d0").unwrap();
    assert_eq!(delta(before, syncs(&db, &faults)), (0, 1));
    drop(db);
    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    assert_eq!(db.documents().unwrap(), ["d1", "d2", "new"]);
    assert_eq!(db.document_xml("new").unwrap(), DOC);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transactional_load_fsyncs_nothing_until_commit() {
    let dir = scratch("txn");
    let faults = FaultState::new();
    let db = faulted_db(&dir, &faults);
    db.load_document("old", DOC).unwrap();
    let before = syncs(&db, &faults);
    let txn = db.begin();
    {
        let _scope = txn.install();
        db.load_document("t", DOC).unwrap();
    }
    assert_eq!(delta(before, syncs(&db, &faults)), (0, 0));
    assert_eq!(db.documents().unwrap(), ["old"], "not committed yet");
    txn.commit().unwrap();
    assert_eq!(delta(before, syncs(&db, &faults)), (FILES_PER_DOC, 1));
    assert_eq!(db.documents().unwrap(), ["old", "t"]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_sync_leaves_the_file_dirty_for_the_next_flush() {
    let dir = scratch("failsync");
    let faults = FaultState::new();
    let db = faulted_db(&dir, &faults);
    let env = db.env();
    let f = env.create_file("raw").unwrap();
    let p = env.allocate_page(f).unwrap();
    env.flush().unwrap();
    env.with_page_mut(f, p, |d| d[0] = 0x5A).unwrap();
    faults.fail_next_sync();
    assert!(env.flush().is_err());
    let before = syncs(&db, &faults);
    env.flush().unwrap();
    assert_eq!(
        delta(before, syncs(&db, &faults)).0,
        1,
        "the retry fsyncs it"
    );
    faults.kill_now();
    drop(db);
    let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
    let f = env.open_file("raw").unwrap();
    assert_eq!(env.with_page(f, PageId(0), |d| d[0]).unwrap(), 0x5A);
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_inside_a_transaction_commits_or_rolls_back() {
    let dir = scratch("txndrop");
    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    db.load_document("keep", DOC).unwrap();
    db.load_document("gone", DOC).unwrap();
    let txn = db.begin();
    {
        let _scope = txn.install();
        db.drop_document("keep").unwrap();
    }
    assert!(db.has_document("keep"), "a drop takes effect at commit");
    txn.rollback().unwrap();
    assert_eq!(db.document_xml("keep").unwrap(), DOC);

    let txn = db.begin();
    {
        let _scope = txn.install();
        db.drop_document("gone").unwrap();
        db.load_document("fresh", DOC).unwrap();
    }
    txn.commit().unwrap();
    assert!(!db.has_document("gone"));
    assert_eq!(db.documents().unwrap(), ["fresh", "keep"]);
    drop(db);

    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    assert_eq!(db.documents().unwrap(), ["fresh", "keep"]);
    assert_eq!(db.document_xml("keep").unwrap(), DOC);
    assert!(!dir.join("gone.xasr.sdb").exists());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rolled_back_load_leaves_no_files() {
    let dir = scratch("txnload");
    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    let txn = db.begin();
    {
        let _scope = txn.install();
        db.load_document("temp", DOC).unwrap();
    }
    txn.rollback().unwrap();
    assert!(!db.has_document("temp"));
    assert!(!dir.join("temp.xasr.sdb").exists());
    db.load_document("temp", DOC).unwrap();
    assert_eq!(db.document_xml("temp").unwrap(), DOC);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Loads of distinct documents share no page: two threads of
/// `begin; load; commit`, started together every round, never pick a
/// deadlock victim.
#[test]
fn transactional_loads_of_distinct_documents_never_deadlock() {
    let dir = scratch("distinct");
    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    let start = std::sync::Barrier::new(2);
    let errors: Vec<String> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let (db, start) = (db.clone(), &start);
                s.spawn(move || {
                    let mut errors = Vec::new();
                    for r in 0..50 {
                        start.wait();
                        let txn = db.begin();
                        let loaded = {
                            let _scope = txn.install();
                            db.load_document(&format!("t{t}-r{r:02}"), DOC)
                        };
                        let done = loaded.and_then(|()| Ok(txn.commit()?));
                        if let Err(e) = done {
                            errors.push(format!("thread {t} round {r}: {e}"));
                        }
                    }
                    errors
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(db.documents().unwrap().len(), 100);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
