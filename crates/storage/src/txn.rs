//! Transactions: begin/commit/rollback handles, strict two-phase locking on
//! names with wait-for-graph deadlock detection, and the commit path into
//! the WAL's group commit.
//!
//! The unit of change is a whole file set — in saardb, a document. A load
//! builds new files, a drop retires committed ones, and a query reads; no
//! operation rewrites a page of a committed file, so there are no page
//! locks, no undo images and no redo. The design follows the classic
//! textbook shape (and the SimpleDB lineage noted in PAPERS.md):
//!
//! * **[`Txn`] handles** are cheap clones of a shared state. A thread
//!   makes a transaction *current* with [`Txn::install`] (the same
//!   thread-local stack discipline as [`crate::Governor`]). Files the
//!   installed transaction creates belong to it: built unlogged, seen by
//!   it alone, made durable by its commit and deleted by its rollback.
//!   Without an installed transaction, a logged environment refuses to
//!   create or remove a durable file ([`StorageError::NoTxn`]).
//! * **Strict 2PL on names.** [`Env::lock`] takes a shared or exclusive
//!   lock on a name for the installed transaction (S→X upgrades in
//!   place), held to commit or rollback. The caller picks the names:
//!   `xmldb-core` locks a document's name — S for a query, X for a load
//!   or a drop.
//! * **Deadlock detection, not timeouts.** A blocked request adds its
//!   edge to the wait-for graph and searches for a cycle through itself;
//!   if found, the *requester* is the victim: it is rolled back on the
//!   spot and the request fails with [`StorageError::Deadlock`] — a
//!   retryable error, exactly like the governor's `Cancelled`. A parked
//!   request re-checks the thread's governor every 25 ms.
//! * **Group commit.** Commit fsyncs the files the transaction created
//!   (a failed data fsync rolls the transaction back: the files may have
//!   lost pages, and nothing is left to rewrite them from), appends one
//!   commit record — the files it adds and the names it drops
//!   — and calls [`crate::wal::Wal::sync_to`]: concurrent committers batch
//!   behind a single `sync_data`, so `saardb_wal_syncs` grows sublinearly
//!   in committers. A transaction that changed nothing costs no record and
//!   no fsync. Once the log outgrows its threshold, a commit that leaves
//!   no transaction active also checkpoints it.
//! * **Drops wait for commit.** A dropped file leaves the catalog at
//!   commit; its bytes stay readable to every reader still pinning it
//!   (see [`crate::env::FilePins`]). Rollback forgets the drop.

use crate::env::{Env, FileId};
use crate::error::StorageError;
use crate::governor::Governor;
use crate::Result;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;
use xmldb_obs::{Counter, Registry};

/// A name lock's mode. `Exclusive` subsumes `Shared` (ordering used for
/// the already-held fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockMode {
    /// Readers: any number of transactions at once.
    Shared,
    /// A writer: one transaction, alone.
    Exclusive,
}

/// How long a blocked lock request sleeps between governor checks. Purely
/// a responsiveness bound for cancellation/deadlines while parked — wakeups
/// for lock releases come through the condvar immediately.
const LOCK_WAIT_TICK: Duration = Duration::from_millis(25);

#[derive(Default)]
struct LockState {
    /// Per name: which transactions hold it, in which mode. An exclusive
    /// holder is always alone (modulo its own earlier shared entry, which
    /// upgrade replaces).
    holders: HashMap<String, HashMap<u64, LockMode>>,
    /// Per blocked transaction: the request it is parked on — the edges of
    /// the wait-for graph.
    waiting: HashMap<u64, (String, LockMode)>,
    /// Per transaction: every name it holds (release index).
    held: HashMap<u64, HashSet<String>>,
}

/// The lock table: strict 2PL on names with wait-for-graph deadlock
/// detection. One table per environment. Built on `std::sync` primitives —
/// the blocked path needs a condvar, which the vendored `parking_lot` shim
/// does not provide.
pub(crate) struct LockTable {
    state: Mutex<LockState>,
    cv: Condvar,
}

fn can_grant(st: &LockState, txn: u64, key: &str, mode: LockMode) -> bool {
    let Some(holders) = st.holders.get(key) else {
        return true;
    };
    match mode {
        LockMode::Shared => holders
            .iter()
            .all(|(&h, &m)| h == txn || m == LockMode::Shared),
        LockMode::Exclusive => holders.keys().all(|&h| h == txn),
    }
}

/// Does `start`'s just-recorded wait edge close a cycle? DFS over
/// "waiter → holders of the name it waits on".
fn closes_cycle(st: &LockState, start: u64) -> bool {
    let mut stack = vec![start];
    let mut seen: HashSet<u64> = HashSet::new();
    while let Some(t) = stack.pop() {
        let Some((key, _)) = st.waiting.get(&t) else {
            continue;
        };
        let Some(holders) = st.holders.get(key) else {
            continue;
        };
        for &h in holders.keys() {
            if h == t {
                continue; // waiting to upgrade past itself
            }
            if h == start {
                return true;
            }
            if seen.insert(h) {
                stack.push(h);
            }
        }
    }
    false
}

impl LockTable {
    fn new() -> LockTable {
        LockTable {
            state: Mutex::new(LockState::default()),
            cv: Condvar::new(),
        }
    }

    /// Acquires (or upgrades to) `mode` on `key` for `txn`, blocking while
    /// conflicting holders exist. Fails with [`StorageError::Deadlock`]
    /// when the request closes a wait-for cycle (the requester is the
    /// victim), or with a governor error if the thread's installed
    /// governor trips while parked.
    fn lock(&self, txn: u64, key: &str, mode: LockMode, waits: &Counter) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        if st
            .holders
            .get(key)
            .and_then(|h| h.get(&txn))
            .is_some_and(|&held| held >= mode)
        {
            return Ok(());
        }
        let mut counted_wait = false;
        loop {
            if can_grant(&st, txn, key, mode) {
                st.holders
                    .entry(key.to_string())
                    .or_default()
                    .insert(txn, mode);
                st.held.entry(txn).or_default().insert(key.to_string());
                return Ok(());
            }
            st.waiting.insert(txn, (key.to_string(), mode));
            if closes_cycle(&st, txn) {
                st.waiting.remove(&txn);
                drop(st);
                // The victim's locks are about to be released by its
                // rollback; wake conflicting waiters so they re-check.
                self.cv.notify_all();
                return Err(StorageError::Deadlock { txn });
            }
            if !counted_wait {
                waits.inc();
                counted_wait = true;
            }
            let (guard, _timeout) = self.cv.wait_timeout(st, LOCK_WAIT_TICK).unwrap();
            st = guard;
            st.waiting.remove(&txn);
            Governor::check_current()?;
        }
    }

    /// Releases every lock `txn` holds and clears its wait edge.
    fn release_all(&self, txn: u64) {
        let mut st = self.state.lock().unwrap();
        if let Some(keys) = st.held.remove(&txn) {
            for key in keys {
                if let Some(holders) = st.holders.get_mut(&key) {
                    holders.remove(&txn);
                    if holders.is_empty() {
                        st.holders.remove(&key);
                    }
                }
            }
        }
        st.waiting.remove(&txn);
        drop(st);
        self.cv.notify_all();
    }
}

/// Registry-backed per-transaction counters (shared exposition with the
/// pool/WAL/engine metrics).
pub(crate) struct TxnCounters {
    pub(crate) begins: Arc<Counter>,
    pub(crate) commits: Arc<Counter>,
    pub(crate) rollbacks: Arc<Counter>,
    pub(crate) deadlocks: Arc<Counter>,
    pub(crate) lock_waits: Arc<Counter>,
    pub(crate) group_followers: Arc<Counter>,
}

impl TxnCounters {
    fn new(registry: &Registry) -> TxnCounters {
        registry.help("saardb_txn_begins_total", "Transactions begun.");
        registry.help("saardb_txn_commits_total", "Transactions committed.");
        registry.help(
            "saardb_txn_rollbacks_total",
            "Transactions rolled back (explicit, dropped, or deadlock victims).",
        );
        registry.help(
            "saardb_txn_deadlocks_total",
            "Lock requests aborted as deadlock victims.",
        );
        registry.help(
            "saardb_txn_lock_waits_total",
            "Lock requests that blocked at least once.",
        );
        registry.help(
            "saardb_txn_group_commit_followers_total",
            "Commits made durable by another committer's fsync (group commit).",
        );
        TxnCounters {
            begins: registry.counter("saardb_txn_begins_total", &[]),
            commits: registry.counter("saardb_txn_commits_total", &[]),
            rollbacks: registry.counter("saardb_txn_rollbacks_total", &[]),
            deadlocks: registry.counter("saardb_txn_deadlocks_total", &[]),
            lock_waits: registry.counter("saardb_txn_lock_waits_total", &[]),
            group_followers: registry.counter("saardb_txn_group_commit_followers_total", &[]),
        }
    }
}

/// Per-environment transaction bookkeeping: id allocation, the lock table
/// and the set of live transactions.
pub(crate) struct TxnManager {
    next_id: AtomicU64,
    /// Live transactions by id. `Weak`: the entry must not keep a dropped
    /// handle's state alive (last-handle drop triggers auto-rollback).
    active: Mutex<HashMap<u64, Weak<TxnInner>>>,
    locks: LockTable,
    pub(crate) counters: TxnCounters,
}

impl TxnManager {
    pub(crate) fn new(registry: &Registry) -> TxnManager {
        TxnManager {
            next_id: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
            locks: LockTable::new(),
            counters: TxnCounters::new(registry),
        }
    }

    /// Number of live transactions. Gates log truncation: a checkpoint
    /// records the catalog, and an in-flight transaction's new files are
    /// not in it yet.
    pub(crate) fn active_count(&self) -> usize {
        let mut active = self.active.lock().unwrap();
        active.retain(|_, w| w.strong_count() > 0);
        active.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnStatus {
    Active,
    Committed,
    RolledBack,
}

struct TxnData {
    status: TxnStatus,
    /// Committed files dropped by this transaction, retired at commit.
    drops: Vec<FileId>,
}

struct TxnInner {
    id: u64,
    data: Mutex<TxnData>,
}

/// A transaction handle: cheap to clone; all clones share one state.
/// Dropping the last clone of an active transaction rolls it back.
#[derive(Clone)]
pub struct Txn {
    env: Env,
    inner: Arc<TxnInner>,
}

thread_local! {
    /// Stack of installed transactions (innermost last) — the same
    /// discipline as the governor's thread-local stack.
    static CURRENT: RefCell<Vec<Txn>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard of [`Txn::install`]: pops the thread's current transaction
/// on drop (restoring the previously installed one, if any).
pub struct TxnScope {
    _priv: (),
}

impl Drop for TxnScope {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The transaction on `env` installed on this thread, if any. One
/// thread-local probe when none is installed.
pub(crate) fn installed_on(env: &Env) -> Option<Txn> {
    CURRENT.with(|c| {
        let stack = c.borrow();
        stack.last().filter(|t| t.env.same_env(env)).cloned()
    })
}

/// The id of the transaction on `env` installed on this thread, if any.
pub(crate) fn installed_id(env: &Env) -> Option<u64> {
    installed_on(env).map(|t| t.id())
}

/// Under a transaction on `env` installed on this thread, defers dropping
/// the committed `files` to its commit and returns `true`; `false` when no
/// such transaction is installed.
pub(crate) fn defer_drops(env: &Env, files: &[FileId]) -> Result<bool> {
    let Some(txn) = installed_on(env) else {
        return Ok(false);
    };
    let mut data = txn.inner.data.lock().unwrap();
    if data.status != TxnStatus::Active {
        return Err(StorageError::TxnInactive { txn: txn.id() });
    }
    data.drops.extend_from_slice(files);
    Ok(true)
}

impl Txn {
    pub(crate) fn begin(env: &Env) -> Txn {
        let mgr = env.txns();
        let id = mgr.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let inner = Arc::new(TxnInner {
            id,
            data: Mutex::new(TxnData {
                status: TxnStatus::Active,
                drops: Vec::new(),
            }),
        });
        mgr.active
            .lock()
            .unwrap()
            .insert(id, Arc::downgrade(&inner));
        mgr.counters.begins.inc();
        Txn {
            env: env.clone(),
            inner,
        }
    }

    /// This transaction's id (unique within the environment's session).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// True while the transaction can still lock, change files and commit.
    pub fn is_active(&self) -> bool {
        self.inner.data.lock().unwrap().status == TxnStatus::Active
    }

    /// Makes this transaction the thread's current one for the lifetime of
    /// the returned scope: files created on its environment belong to it,
    /// and drops wait for its commit. Nesting installs restore correctly (a
    /// stack, like [`Governor::install`]).
    pub fn install(&self) -> TxnScope {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        TxnScope { _priv: () }
    }

    /// Takes (or upgrades to) `mode` on `name`, held until this transaction
    /// ends. Blocks while another transaction holds a conflicting lock. On
    /// deadlock this transaction — the victim — is rolled back before the
    /// error returns, so its locks are already free when the caller sees
    /// [`StorageError::Deadlock`].
    pub(crate) fn lock(&self, name: &str, mode: LockMode) -> Result<()> {
        if !self.is_active() {
            return Err(StorageError::TxnInactive { txn: self.inner.id });
        }
        let mgr = self.env.txns();
        match mgr
            .locks
            .lock(self.inner.id, name, mode, &mgr.counters.lock_waits)
        {
            Err(e @ StorageError::Deadlock { .. }) => {
                mgr.counters.deadlocks.inc();
                let _ = self.rollback();
                Err(e)
            }
            other => other,
        }
    }

    /// Commits: fsyncs the files this transaction created, appends the
    /// commit record — the files it adds and the names it drops — and
    /// makes it durable through the group-commit gate; then unlinks the
    /// dropped files and releases every lock. A transaction that changed
    /// nothing commits without touching the log (and without an fsync). A
    /// failed data fsync rolls the transaction back — deleting its files —
    /// before the error returns, as a deadlock does; on any later error
    /// the transaction stays active — roll it back (or drop it) and retry
    /// from `begin`. Last, the log is checkpointed if it has outgrown its
    /// threshold (see [`Env::checkpoint`]).
    pub fn commit(&self) -> Result<()> {
        let drops = {
            let data = self.inner.data.lock().unwrap();
            if data.status != TxnStatus::Active {
                return Err(StorageError::TxnInactive { txn: self.inner.id });
            }
            data.drops.clone()
        };
        let mgr = self.env.txns();
        let created = self.env.new_files(self.inner.id);
        if !created.is_empty() || !drops.is_empty() {
            if let Err(e) = self.env.make_durable(&created) {
                let _ = self.rollback();
                return Err(e);
            }
            if let Some(marker) = self.env.publish(&created, &drops)? {
                if !self.env.sync_wal(marker.end)? {
                    mgr.counters.group_followers.inc();
                }
            }
            self.env.retire(&drops);
        }
        self.finish(TxnStatus::Committed);
        mgr.counters.commits.inc();
        // The commit is durable: a failed checkpoint only leaves the log
        // long, and the next flush or commit retries it.
        let _ = self.env.flush();
        Ok(())
    }

    /// Rolls back: deletes the files this transaction created, forgets its
    /// drops and releases every lock. It writes nothing to the log: a
    /// transaction without a commit record never happened. Idempotent on
    /// an already-rolled-back transaction; an error on a committed one.
    pub fn rollback(&self) -> Result<()> {
        match self.inner.data.lock().unwrap().status {
            TxnStatus::Active => {}
            TxnStatus::RolledBack => return Ok(()),
            TxnStatus::Committed => return Err(StorageError::TxnInactive { txn: self.inner.id }),
        }
        for file in self.env.new_files(self.inner.id) {
            let _ = self.env.discard(file);
        }
        self.finish(TxnStatus::RolledBack);
        self.env.txns().counters.rollbacks.inc();
        Ok(())
    }

    /// Marks the terminal status, then releases the locks — last, so no
    /// other transaction sees the names before the change is settled.
    fn finish(&self, status: TxnStatus) {
        self.inner.data.lock().unwrap().status = status;
        let mgr = self.env.txns();
        mgr.active.lock().unwrap().remove(&self.inner.id);
        mgr.locks.release_all(self.inner.id);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        // Last handle of a still-active transaction: auto-rollback, so a
        // forgotten (or panicked-over) transaction cannot hold its locks
        // and uncommitted files forever.
        if Arc::strong_count(&self.inner) == 1 && self.is_active() {
            let _ = self.rollback();
        }
    }
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let data = self.inner.data.lock().unwrap();
        f.debug_struct("Txn")
            .field("id", &self.inner.id)
            .field("status", &data.status)
            .field("drops", &data.drops.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;

    fn mem_env() -> Env {
        Env::memory_with(EnvConfig {
            page_size: 128,
            pool_bytes: 16 * 128,
        })
    }

    /// Names `txn` holds in `table`.
    fn held_count(table: &LockTable, txn: u64) -> usize {
        table
            .state
            .lock()
            .unwrap()
            .held
            .get(&txn)
            .map_or(0, HashSet::len)
    }

    #[test]
    fn commit_makes_writes_visible_and_releases_locks() {
        let env = mem_env();
        let txn = env.begin_txn();
        let (f, p) = {
            let _scope = txn.install();
            txn.lock("t", LockMode::Exclusive).unwrap();
            let f = env.create_file("t").unwrap();
            let mut app = env.appender(f).unwrap();
            app.page()[0] = 7;
            (f, app.append().unwrap())
        };
        assert!(!env.file_exists("t"), "invisible outside its transaction");
        assert!(env.committed_files().is_empty());
        assert_eq!(held_count(&env.txns().locks, txn.id()), 1);
        txn.commit().unwrap();
        assert!(!txn.is_active());
        assert_eq!(held_count(&env.txns().locks, txn.id()), 0);
        assert_eq!(env.committed_files(), ["t"]);
        assert_eq!(env.page(f, p).map(|d| d[0]).unwrap(), 7);
    }

    #[test]
    fn dropping_last_handle_rolls_back() {
        let env = mem_env();
        {
            let txn = env.begin_txn();
            let clone = txn.clone();
            let _scope = txn.install();
            env.create_file("t").unwrap();
            drop(clone); // not the last handle: nothing happens
            assert!(txn.is_active());
            assert!(env.file_exists("t"));
        }
        // Scope and last handle dropped: auto-rollback deleted the file.
        assert!(!env.file_exists("t"));
        assert!(matches!(
            env.open_file("t"),
            Err(StorageError::NoSuchFile(_))
        ));
        assert_eq!(env.txns().active_count(), 0);
    }

    #[test]
    fn conflicting_writers_serialize() {
        let env = mem_env();
        let t1 = env.begin_txn();
        {
            let _s = t1.install();
            t1.lock("doc", LockMode::Exclusive).unwrap();
            env.create_file("doc").unwrap();
        }
        let env2 = env.clone();
        let waiter = std::thread::spawn(move || {
            let t2 = env2.begin_txn();
            let _s = t2.install();
            // Blocks until t1 commits, then sees t1's file.
            t2.lock("doc", LockMode::Exclusive).unwrap();
            let seen = env2.file_exists("doc");
            t2.commit().unwrap();
            seen
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "X waits for X");
        t1.commit().unwrap();
        assert!(
            waiter.join().unwrap(),
            "the second writer runs after the first"
        );
    }

    #[test]
    fn deadlock_victim_aborts_and_other_proceeds() {
        let env = mem_env();
        let t1 = env.begin_txn();
        t1.lock("a", LockMode::Exclusive).unwrap();
        let env2 = env.clone();
        let other = std::thread::spawn(move || {
            let t2 = env2.begin_txn();
            t2.lock("b", LockMode::Exclusive).unwrap();
            // Now wait for "a" (held by t1) — t1 will come for "b",
            // closing the cycle; exactly one of the two is the victim.
            let r = t2.lock("a", LockMode::Exclusive);
            if r.is_ok() {
                t2.commit().unwrap();
            }
            r
        });
        std::thread::sleep(Duration::from_millis(50));
        let mine = t1.lock("b", LockMode::Exclusive);
        let theirs = other.join().unwrap();
        let deadlocks = [&mine, &theirs]
            .iter()
            .filter(|r| matches!(r, Err(StorageError::Deadlock { .. })))
            .count();
        assert_eq!(deadlocks, 1, "exactly one victim: {mine:?} / {theirs:?}");
        // The victim was rolled back automatically; the survivor holds or
        // released its locks normally. Either way the table drains.
        if mine.is_ok() {
            t1.commit().unwrap();
        } else {
            assert!(!t1.is_active(), "victim must be auto-rolled-back");
        }
        assert_eq!(env.txns().active_count(), 0);
        assert_eq!(env.txns().counters.deadlocks.get(), 1);
    }

    #[test]
    fn shared_locks_coexist_and_block_writers() {
        let env = mem_env();
        let t1 = env.begin_txn();
        let t2 = env.begin_txn();
        t1.lock("d", LockMode::Shared).unwrap();
        t2.lock("d", LockMode::Shared).unwrap(); // S + S: fine
                                                 // Only t1 upgrades, so it just waits until t2 ends.
        let t1c = t1.clone();
        let up = std::thread::spawn(move || t1c.lock("d", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!up.is_finished(), "upgrade must wait for the S holder");
        t2.commit().unwrap();
        up.join().unwrap().unwrap();
        t1.commit().unwrap();
    }

    #[test]
    fn no_txn_installed_means_no_locking() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let p = env.appender(f).unwrap().append().unwrap();
        let txn = env.begin_txn();
        txn.lock("t", LockMode::Exclusive).unwrap();
        // A plain (auto-commit) access on another thread ignores the lock
        // table entirely — the single-user fast path.
        let env2 = env.clone();
        std::thread::spawn(move || {
            env2.lock("t", LockMode::Exclusive).unwrap();
            env2.page(f, p).map(|d| d[0]).unwrap()
        })
        .join()
        .unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn counters_track_lifecycle() {
        let env = mem_env();
        let c = &env.txns().counters;
        let t1 = env.begin_txn();
        {
            let _s = t1.install();
            let f = env.create_file("t").unwrap();
            env.appender(f).unwrap().append().unwrap();
        }
        t1.commit().unwrap();
        let t2 = env.begin_txn();
        t2.rollback().unwrap();
        assert_eq!(c.begins.get(), 2);
        assert_eq!(c.commits.get(), 1);
        assert_eq!(c.rollbacks.get(), 1);
        assert!(matches!(t2.commit(), Err(StorageError::TxnInactive { .. })));
    }
}
