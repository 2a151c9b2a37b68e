//! What making a document durable costs, loads and drops inside
//! transactions, and what other sessions see of a load before it commits.
//!
//! Data-file fsyncs are counted by the fault-injecting backend, which
//! sees every sync of a wrapped file and counts the ones that flushed
//! something; log fsyncs by the environment's `wal_syncs` counter.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use xmldb_core::{Database, EngineKind, Error};
use xmldb_datagen::dblp::{generate_dblp, DblpConfig};
use xmldb_storage::backend::Backend;
use xmldb_storage::wal::WAL_CHECKPOINT_BYTES;
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
        (0, 0),
        "a flush with nothing written fsyncs nothing"
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
    let txn = db.begin();
    {
        let _scope = txn.install();
        let f = env.create_file("raw").unwrap();
        let p = env.allocate_page(f).unwrap();
        env.with_page_mut(f, p, |d| d[0] = 0x5A).unwrap();
    }
    faults.fail_next_sync();
    assert!(txn.commit().is_err());
    // The retried commit fsyncs the file again; the checkpoint then drops
    // everything from the log but the catalog: from then on only the data
    // file holds the write.
    let before = syncs(&db, &faults);
    txn.commit().unwrap();
    assert_eq!(
        delta(before, syncs(&db, &faults)).0,
        1,
        "the retry fsyncs it"
    );
    env.checkpoint().unwrap();
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

#[test]
fn other_sessions_do_not_see_an_uncommitted_load() {
    let dir = scratch("dirty");
    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    db.load_document("old", DOC).unwrap();
    let txn = db.begin();
    {
        let _scope = txn.install();
        db.load_document("d", DOC).unwrap();
        assert!(db.has_document("d"), "its own transaction sees it");
    }
    let other_session = |visible: bool| {
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(db.has_document("d"), visible);
                let got = db.query("d", "//t", EngineKind::M4CostBased);
                let docs = db.documents().unwrap();
                if visible {
                    assert_eq!(got.unwrap().to_xml(), "<t>alpha</t><t>beta</t>");
                    assert_eq!(docs, ["d", "old"]);
                } else {
                    assert!(matches!(got, Err(Error::NoSuchDocument(_))), "{got:?}");
                    assert_eq!(docs, ["old"]);
                }
            });
        })
    };
    other_session(false);
    txn.commit().unwrap();
    other_session(true);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn autocommit_loads_alone_keep_the_log_under_the_checkpoint_threshold() {
    let dir = scratch("ckpt");
    let db = Database::open_dir(&dir, EnvConfig::default()).unwrap();
    // A commit record lists the files it adds; names near the file-name
    // limit make it about 1.3 KB per document, so the log crosses the
    // threshold after about 3 200 loads. Every commit past it checkpoints.
    let mut last = 0;
    for i in 0..4_000 {
        db.load_document(&format!("{}{i:04}", "n".repeat(240)), DOC)
            .unwrap();
        let len = db.env().wal_bytes().unwrap();
        assert!(len <= WAL_CHECKPOINT_BYTES, "load {i}: log at {len} bytes");
        if len < last {
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        last = len;
    }
    panic!("the log never reached the threshold");
}

thread_local! {
    /// Set on the thread that runs the big load.
    static LOADER: Cell<bool> = const { Cell::new(false) };
}

/// What the big load's files tell the test.
#[derive(Default)]
struct Watch {
    /// The loader thread synced one of its files: its commit began.
    committing: AtomicBool,
    /// While set, the loader thread parks before touching its files.
    paused: Mutex<bool>,
    resumed: Condvar,
    /// The loader thread is parked.
    parked: AtomicBool,
}

impl Watch {
    fn set_paused(&self, paused: bool) {
        *self.paused.lock().unwrap() = paused;
        self.resumed.notify_all();
    }
}

/// A backend of the big load's files: parks the loader thread while the
/// watch is paused and notes when the loader syncs.
struct Watched {
    inner: Arc<dyn Backend>,
    watch: Arc<Watch>,
}

impl Watched {
    fn gate(&self) -> bool {
        if !LOADER.with(Cell::get) {
            return false;
        }
        let mut paused = self.watch.paused.lock().unwrap();
        while *paused {
            self.watch.parked.store(true, Ordering::SeqCst);
            paused = self.watch.resumed.wait(paused).unwrap();
        }
        true
    }
}

impl Backend for Watched {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> xmldb_storage::Result<()> {
        self.gate();
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> xmldb_storage::Result<()> {
        self.gate();
        self.inner.write_page(id, buf)
    }

    fn allocate_page(&self) -> xmldb_storage::Result<PageId> {
        self.gate();
        self.inner.allocate_page()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn sync(&self) -> xmldb_storage::Result<bool> {
        if self.gate() {
            self.watch.committing.store(true, Ordering::SeqCst);
        }
        self.inner.sync()
    }

    fn path(&self) -> Option<&Path> {
        self.inner.path()
    }
}

/// The big document's name and files.
const BIG: &str = "big";

fn big_files() -> [String; 5] {
    let f = xmldb_xasr::file_names(BIG);
    [f.clustered, f.label, f.parent, f.text, f.stats]
}

/// Thread A loads a big document while this thread runs small autocommit
/// loads, until A returns. After each small load, as long as A's commit
/// has not begun, neither the committed files nor the documents may name
/// A's document. With `crash`, the power is cut right after the first
/// small commit that began while A was building (with A parked): after
/// reopen every small document is there, and none of A's files unless
/// its commit had begun.
fn load_beside_a_big_load(xml: &str, crash: bool) {
    let dir = scratch("beside");
    let faults = FaultState::new();
    let watch = Arc::new(Watch::default());
    let (state, watched) = (Arc::clone(&faults), Arc::clone(&watch));
    let env = Env::open_dir_with_decorator(
        &dir,
        EnvConfig::default(),
        Arc::new(move |name, inner| {
            let inner: Arc<dyn Backend> = Arc::new(FaultBackend::new(inner, Arc::clone(&state)));
            if name.starts_with(&format!("{BIG}.")) {
                let watch = Arc::clone(&watched);
                Arc::new(Watched { inner, watch }) as _
            } else {
                inner
            }
        }),
    )
    .unwrap();
    let db = Database::from_env(env);
    let big = big_files();
    let mut small = Vec::new();
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            LOADER.with(|l| l.set(true));
            db.load_document(BIG, xml)
        });
        while !a.is_finished() {
            let building = dir.join(format!("{}.sdb", big[0])).exists();
            let name = format!("s{:03}", small.len());
            db.load_document(&name, DOC).unwrap();
            small.push(name);
            let files = db.env().committed_files();
            let docs = db.documents().unwrap();
            if !watch.committing.load(Ordering::SeqCst) {
                assert!(
                    !files.iter().any(|f| big.contains(f)),
                    "an uncommitted load's file is committed: {files:?}"
                );
                assert!(
                    !docs.iter().any(|d| d == BIG),
                    "an uncommitted load is a document: {docs:?}"
                );
            }
            if crash && building {
                watch.set_paused(true);
                while !watch.parked.load(Ordering::SeqCst) && !a.is_finished() {
                    std::thread::yield_now();
                }
                faults.kill_now();
                let committing = watch.committing.load(Ordering::SeqCst);
                let after = Database::open_dir(&dir, EnvConfig::default()).unwrap();
                let docs = after.documents().unwrap();
                let left: Vec<&String> = big
                    .iter()
                    .filter(|f| dir.join(format!("{f}.sdb")).exists())
                    .collect();
                drop(after);
                // Let A go (it fails against the cut power) before any
                // assertion can unwind past it.
                watch.set_paused(false);
                for name in &small {
                    assert!(docs.contains(name), "{name} lost: {docs:?}");
                }
                if !committing {
                    assert!(!docs.iter().any(|d| d == BIG), "{docs:?}");
                    assert!(left.is_empty(), "survived the crash: {left:?}");
                }
                break;
            }
        }
        let loaded = a.join().unwrap();
        if !crash {
            loaded.unwrap();
        }
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// About 500 KB: long enough to build that many small loads commit
/// meanwhile.
fn big_doc() -> String {
    generate_dblp(&DblpConfig::scaled(2.0))
}

#[test]
fn autocommit_load_never_commits_another_loads_files() {
    load_beside_a_big_load(&big_doc(), false);
}

#[test]
fn crash_beside_a_big_load_leaves_none_of_its_files() {
    load_beside_a_big_load(&big_doc(), true);
}

/// The CI variant: a 3 MB document, 20 rounds, each crashing once.
#[test]
#[ignore = "extended; CI runs it in release with --ignored"]
fn concurrent_load_isolation_20_rounds() {
    let xml = generate_dblp(&DblpConfig::scaled(12.0));
    for _ in 0..20 {
        load_beside_a_big_load(&xml, true);
    }
}
