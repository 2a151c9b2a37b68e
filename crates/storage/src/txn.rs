//! Transactions: begin/commit/rollback handles, page-granularity strict
//! two-phase locking with wait-for-graph deadlock detection, and the
//! bookkeeping that ties both into the WAL's group-commit path.
//!
//! The paper's term-project engine was strictly single-user; this module
//! is the concurrency layer ROADMAP item #1 calls for. The design follows
//! the classic textbook shape (and the SimpleDB lineage noted in
//! PAPERS.md):
//!
//! * **[`Txn`] handles** are cheap clones of a shared state. A thread
//!   makes a transaction *current* with [`Txn::install`] (the same
//!   thread-local stack discipline as [`crate::Governor`]); while
//!   installed, every [`crate::Env::with_page`] /
//!   [`crate::Env::with_page_mut`] on that environment routes through the
//!   lock table. Code with no installed transaction pays one thread-local
//!   probe and takes no locks — the single-user fast path is unchanged.
//! * **Strict 2PL at page granularity.** Reads take shared locks, writes
//!   exclusive locks (with S→X upgrade); everything is held to commit or
//!   rollback. The first exclusive touch of a page captures its
//!   *pre-image* — the undo record and the WAL before-image in one.
//! * **Deadlock detection, not timeouts.** A blocked request adds its
//!   edge to the wait-for graph and searches for a cycle through itself;
//!   if found, the *requester* is the victim: it is rolled back on the
//!   spot and the operation fails with [`StorageError::Deadlock`] — a
//!   retryable error, exactly like the governor's `Cancelled`.
//! * **Group commit.** Commit appends the write set's tagged page images
//!   plus a `TxnCommit` marker and calls [`crate::wal::Wal::sync_to`]:
//!   concurrent committers batch behind a single `sync_data`, so
//!   `saardb_wal_syncs` grows sublinearly in committers. A read-only
//!   transaction appends nothing and costs no fsync at all.
//! * **Files are created and dropped inside the transaction.** A file it
//!   creates is built without page images (but locked); commit fsyncs it
//!   and the marker's catalog lists it, rollback deletes it. A drop waits
//!   for commit, whose catalog omits the file; rollback forgets it.
//!
//! Crash semantics: pages dirtied under a transaction may be *stolen* to
//! disk at any time (the pool's steal/no-force policy); the steal hook
//! tags their WAL images with the owning transaction so recovery can redo
//! winners and undo losers of interleaved transactions — see
//! [`crate::wal::replay`].

use crate::env::{Env, FileId, FileState};
use crate::error::StorageError;
use crate::governor::Governor;
use crate::page::PageId;
use crate::Result;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;
use xmldb_obs::{Counter, Registry};

/// A page lock's mode. `Exclusive` subsumes `Shared` (ordering used for
/// the already-held fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LockMode {
    Shared,
    Exclusive,
}

type PageKey = (FileId, PageId);

/// How long a blocked lock request sleeps between governor checks. Purely
/// a responsiveness bound for cancellation/deadlines while parked — wakeups
/// for lock releases come through the condvar immediately.
const LOCK_WAIT_TICK: Duration = Duration::from_millis(25);

#[derive(Default)]
struct LockState {
    /// Per page: which transactions hold it, in which mode. An exclusive
    /// holder is always alone (modulo its own earlier shared entry, which
    /// upgrade replaces).
    holders: HashMap<PageKey, HashMap<u64, LockMode>>,
    /// Per blocked transaction: the request it is parked on — the edges of
    /// the wait-for graph.
    waiting: HashMap<u64, (PageKey, LockMode)>,
    /// Per transaction: every key it holds (release index).
    held: HashMap<u64, HashSet<PageKey>>,
}

/// The lock table: page-granularity strict 2PL with wait-for-graph
/// deadlock detection. One table per environment. Built on `std::sync`
/// primitives — the blocked path needs a condvar, which the vendored
/// `parking_lot` shim does not provide.
pub(crate) struct LockTable {
    state: Mutex<LockState>,
    cv: Condvar,
}

fn can_grant(st: &LockState, txn: u64, key: PageKey, mode: LockMode) -> bool {
    let Some(holders) = st.holders.get(&key) else {
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
/// "waiter → holders of the key it waits on".
fn closes_cycle(st: &LockState, start: u64) -> bool {
    let mut stack = vec![start];
    let mut seen: HashSet<u64> = HashSet::new();
    while let Some(t) = stack.pop() {
        let Some(&(key, _)) = st.waiting.get(&t) else {
            continue;
        };
        let Some(holders) = st.holders.get(&key) else {
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
    fn lock(&self, txn: u64, key: PageKey, mode: LockMode, waits: &Counter) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        if st
            .holders
            .get(&key)
            .and_then(|h| h.get(&txn))
            .is_some_and(|&held| held >= mode)
        {
            return Ok(());
        }
        let mut counted_wait = false;
        loop {
            if can_grant(&st, txn, key, mode) {
                st.holders.entry(key).or_default().insert(txn, mode);
                st.held.entry(txn).or_default().insert(key);
                return Ok(());
            }
            st.waiting.insert(txn, (key, mode));
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

    #[cfg(test)]
    fn held_count(&self, txn: u64) -> usize {
        self.state
            .lock()
            .unwrap()
            .held
            .get(&txn)
            .map_or(0, HashSet::len)
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

/// Per-environment transaction bookkeeping: id allocation, the lock
/// table, the set of live transactions, and the page→owner index the
/// buffer pool's steal hook consults to tag WAL images.
pub(crate) struct TxnManager {
    next_id: AtomicU64,
    /// Live transactions by id. `Weak`: the entry must not keep a dropped
    /// handle's state alive (last-handle drop triggers auto-rollback).
    active: Mutex<HashMap<u64, Weak<TxnInner>>>,
    /// Which active transaction currently owns (has exclusively written)
    /// each page. Consulted on the steal path, so lookups take each lock
    /// briefly and never nested.
    owners: Mutex<HashMap<PageKey, u64>>,
    pub(crate) locks: LockTable,
    pub(crate) counters: TxnCounters,
}

impl TxnManager {
    pub(crate) fn new(registry: &Registry) -> TxnManager {
        TxnManager {
            next_id: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
            owners: Mutex::new(HashMap::new()),
            locks: LockTable::new(),
            counters: TxnCounters::new(registry),
        }
    }

    /// Number of live transactions. Gates log truncation: a checkpoint
    /// while a transaction is in flight would discard its undo records.
    pub(crate) fn active_count(&self) -> usize {
        let mut active = self.active.lock().unwrap();
        active.retain(|_, w| w.strong_count() > 0);
        active.len()
    }

    /// The owning transaction and its captured pre-image for `page`, if an
    /// active transaction has written it. Used by the steal hook to log a
    /// transaction-tagged image whose before-image is the page content at
    /// the transaction's first touch (so recovery's undo lands there no
    /// matter how many steals happened since).
    pub(crate) fn owner_pre_image(&self, file: FileId, page: PageId) -> Option<(u64, Vec<u8>)> {
        let id = *self.owners.lock().unwrap().get(&(file, page))?;
        let inner = self.active.lock().unwrap().get(&id)?.upgrade()?;
        let data = inner.data.lock().unwrap();
        data.writes
            .iter()
            .find(|w| w.file == file && w.page == page)
            .map(|w| (id, w.pre_image.clone()))
    }

    fn register_owner(&self, file: FileId, page: PageId, txn: u64) {
        self.owners.lock().unwrap().insert((file, page), txn);
    }

    fn clear_owners(&self, txn: u64, keys: impl Iterator<Item = PageKey>) {
        let mut owners = self.owners.lock().unwrap();
        for key in keys {
            if owners.get(&key) == Some(&txn) {
                owners.remove(&key);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnStatus {
    Active,
    Committed,
    RolledBack,
}

/// One captured write: the page and its content at the transaction's
/// first exclusive touch.
#[derive(Clone)]
struct WriteEntry {
    file: FileId,
    page: PageId,
    pre_image: Vec<u8>,
}

struct TxnData {
    status: TxnStatus,
    /// First-touch order; rollback restores in reverse.
    writes: Vec<WriteEntry>,
    written: HashSet<PageKey>,
    /// Committed files dropped by this transaction, removed at commit.
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

/// The thread's innermost installed transaction, if any (a clone).
fn current() -> Option<Txn> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Fast probe: is any transaction installed on this thread? Avoids the
/// handle clone on the (overwhelmingly common) untransacted path.
#[inline]
fn installed() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Page-read hook for [`Env::with_page`]: under an installed transaction
/// on `env`, takes (and holds, per strict 2PL) a shared lock on the page.
#[inline]
pub(crate) fn read_hook(env: &Env, file: FileId, page: PageId) -> Result<()> {
    if !installed() {
        return Ok(());
    }
    match current() {
        Some(txn) if txn.env.same_env(env) => txn.touch(file, page, LockMode::Shared),
        _ => Ok(()),
    }
}

/// The id of the transaction on `env` installed on this thread, if any.
pub(crate) fn installed_id(env: &Env) -> Option<u64> {
    if !installed() {
        return None;
    }
    current().filter(|t| t.env.same_env(env)).map(|t| t.id())
}

/// Under a transaction on `env` installed on this thread, defers dropping
/// the committed `files` to its commit and returns `true`; `false` when no
/// such transaction is installed.
pub(crate) fn defer_drops(env: &Env, files: &[FileId]) -> Result<bool> {
    if !installed() {
        return Ok(false);
    }
    match current() {
        Some(txn) if txn.env.same_env(env) => {
            let mut data = txn.inner.data.lock().unwrap();
            if data.status != TxnStatus::Active {
                return Err(StorageError::TxnInactive { txn: txn.id() });
            }
            data.drops.extend_from_slice(files);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Page-write hook for [`Env::with_page_mut`]: under an installed
/// transaction on `env`, takes an exclusive lock and captures the page's
/// pre-image on first touch.
#[inline]
pub(crate) fn write_hook(env: &Env, file: FileId, page: PageId) -> Result<()> {
    if !installed() {
        return Ok(());
    }
    match current() {
        Some(txn) if txn.env.same_env(env) => txn.touch(file, page, LockMode::Exclusive),
        _ => Ok(()),
    }
}

impl Txn {
    pub(crate) fn begin(env: &Env) -> Txn {
        let mgr = env.txns();
        let id = mgr.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let inner = Arc::new(TxnInner {
            id,
            data: Mutex::new(TxnData {
                status: TxnStatus::Active,
                writes: Vec::new(),
                written: HashSet::new(),
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

    /// This transaction's id (unique within the environment's session;
    /// also the tag on its WAL records).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// True while the transaction can still read, write and commit.
    pub fn is_active(&self) -> bool {
        self.inner.data.lock().unwrap().status == TxnStatus::Active
    }

    /// Pages this transaction has written (its undo set).
    pub fn write_set_len(&self) -> usize {
        self.inner.data.lock().unwrap().writes.len()
    }

    /// Makes this transaction the thread's current one for the lifetime of
    /// the returned scope: page accesses on its environment acquire locks
    /// and capture pre-images. Nesting installs restore correctly (a
    /// stack, like [`Governor::install`]).
    pub fn install(&self) -> TxnScope {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        TxnScope { _priv: () }
    }

    /// Lock acquisition + first-touch pre-image capture. On deadlock the
    /// transaction (the victim) is rolled back before the error returns,
    /// so its locks are already free when the caller sees
    /// [`StorageError::Deadlock`].
    fn touch(&self, file: FileId, page: PageId, mode: LockMode) -> Result<()> {
        {
            let data = self.inner.data.lock().unwrap();
            if data.status != TxnStatus::Active {
                return Err(StorageError::TxnInactive { txn: self.inner.id });
            }
            if mode == LockMode::Exclusive && data.written.contains(&(file, page)) {
                return Ok(()); // already ours, pre-image captured
            }
        }
        let Some((_, state)) = self.env.file_meta(file) else {
            // Unknown file id: let the pool produce its NoSuchFile.
            return Ok(());
        };
        if state == FileState::Temp {
            return Ok(()); // scratch files are private to their query
        }
        let mgr = self.env.txns();
        match mgr
            .locks
            .lock(self.inner.id, (file, page), mode, &mgr.counters.lock_waits)
        {
            Ok(()) => {}
            Err(e @ StorageError::Deadlock { .. }) => {
                mgr.counters.deadlocks.inc();
                let _ = self.rollback();
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        match (mode, state) {
            // A file this transaction created is built, not logged:
            // rollback deletes it, so its pages need no undo image.
            (LockMode::Exclusive, FileState::New(Some(owner))) if owner == self.inner.id => {
                self.inner.data.lock().unwrap().written.insert((file, page));
            }
            (LockMode::Exclusive, _) => self.capture_pre_image(file, page)?,
            (LockMode::Shared, _) => {}
        }
        Ok(())
    }

    /// Reads the page's current (logical, pool-resident) content and
    /// records it as the undo image, then marks this transaction as the
    /// page's owner for steal-tagging. Called with the exclusive lock
    /// held, never with `data` locked across the page read (the read can
    /// evict, and the steal hook locks `data` of owning transactions).
    fn capture_pre_image(&self, file: FileId, page: PageId) -> Result<()> {
        let pre = self.env.read_page_vec(file, page)?;
        {
            let mut data = self.inner.data.lock().unwrap();
            if !data.written.insert((file, page)) {
                return Ok(()); // raced with ourselves (multi-thread txn)
            }
            data.writes.push(WriteEntry {
                file,
                page,
                pre_image: pre,
            });
        }
        self.env.txns().register_owner(file, page, self.inner.id);
        Ok(())
    }

    /// Commits: makes the files this transaction created durable (one
    /// fsync each), appends the write set's transaction-tagged images and
    /// the commit marker — whose catalog lists the created files and omits
    /// the dropped ones — makes them durable through the group-commit gate,
    /// deletes the dropped files, then releases every lock. A transaction
    /// that changed nothing commits without touching the log (and without
    /// an fsync). On error the transaction stays active — roll it back (or
    /// drop it) and retry from `begin`.
    pub fn commit(&self) -> Result<()> {
        let (writes, drops) = {
            let data = self.inner.data.lock().unwrap();
            if data.status != TxnStatus::Active {
                return Err(StorageError::TxnInactive { txn: self.inner.id });
            }
            (data.writes.clone(), data.drops.clone())
        };
        let mgr = self.env.txns();
        let created = self.env.new_files(Some(self.inner.id));
        if !writes.is_empty() || !created.is_empty() || !drops.is_empty() {
            self.env.drop_frames(&drops)?;
            self.env.make_durable(&created)?;
            let mut appended = 0u64;
            let mut bytes = 0u64;
            if let Some(wal) = self.env.wal() {
                for w in writes.iter().filter(|w| !drops.contains(&w.file)) {
                    let Some((name, _)) = self.env.file_meta(w.file) else {
                        continue; // file dropped mid-transaction
                    };
                    let after = self.env.read_page_vec(w.file, w.page)?;
                    let a = self.env.note_wal(wal.append_txn_page_image(
                        self.inner.id,
                        &name,
                        w.page,
                        &w.pre_image,
                        &after,
                    ))?;
                    appended += 1;
                    bytes += a.bytes;
                }
            }
            let stats = self.env.counters();
            stats.wal_appends.add(appended);
            stats.wal_bytes.add(bytes);
            let page_size = self.env.page_size();
            let (marker, dropped) = self.env.publish(&created, &drops, |wal, files, _| {
                wal.append_txn_commit(self.inner.id, page_size, files)
            })?;
            if let Some(a) = marker {
                if !self.env.sync_wal(a.end)? {
                    mgr.counters.group_followers.inc();
                }
            }
            crate::env::delete_files(&dropped)?;
        }
        self.finish(TxnStatus::Committed);
        mgr.counters.commits.inc();
        Ok(())
    }

    /// Rolls back: restores every written page to its pre-image (newest
    /// first), deletes the files this transaction created, forgets its
    /// drops, appends an abort marker, and releases every lock.
    /// Idempotent on an already-rolled-back transaction; an error on a
    /// committed one.
    pub fn rollback(&self) -> Result<()> {
        let writes = {
            let data = self.inner.data.lock().unwrap();
            match data.status {
                TxnStatus::Active => data.writes.clone(),
                TxnStatus::RolledBack => return Ok(()),
                TxnStatus::Committed => {
                    return Err(StorageError::TxnInactive { txn: self.inner.id })
                }
            }
        };
        // Best effort: a page whose file was dropped mid-transaction (or
        // whose backend is dead under fault injection) cannot be restored
        // here — crash recovery restores it from the tagged WAL images.
        for w in writes.iter().rev() {
            let _ = self.env.write_page_raw(w.file, w.page, &w.pre_image);
        }
        // Undoing a create is deleting the file (recovery would too).
        for file in self.env.new_files(Some(self.inner.id)) {
            let _ = self.env.discard(file);
        }
        if !writes.is_empty() {
            if let Some(wal) = self.env.wal() {
                if let Ok(a) = wal.append_txn_abort(self.inner.id) {
                    let stats = self.env.counters();
                    stats.wal_appends.inc();
                    stats.wal_bytes.add(a.bytes);
                }
            }
        }
        self.finish(TxnStatus::RolledBack);
        self.env.txns().counters.rollbacks.inc();
        Ok(())
    }

    /// Marks the terminal status, then drops ownership and locks. Lock
    /// release comes last: until then no other transaction can observe the
    /// pages (strict 2PL's cascading-abort freedom).
    fn finish(&self, status: TxnStatus) {
        let keys: Vec<PageKey> = {
            let mut data = self.inner.data.lock().unwrap();
            data.status = status;
            data.writes.iter().map(|w| (w.file, w.page)).collect()
        };
        let mgr = self.env.txns();
        mgr.active.lock().unwrap().remove(&self.inner.id);
        mgr.clear_owners(self.inner.id, keys.into_iter());
        mgr.locks.release_all(self.inner.id);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        // Last handle of a still-active transaction: auto-rollback, so a
        // forgotten (or panicked-over) transaction cannot pin its locks
        // and uncommitted pages forever.
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
            .field("writes", &data.writes.len())
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

    #[test]
    fn commit_makes_writes_visible_and_releases_locks() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let p = env.allocate_page(f).unwrap();
        let txn = env.begin_txn();
        {
            let _scope = txn.install();
            env.with_page_mut(f, p, |d| d[0] = 7).unwrap();
        }
        assert_eq!(txn.write_set_len(), 1);
        txn.commit().unwrap();
        assert!(!txn.is_active());
        assert_eq!(env.txns().locks.held_count(txn.id()), 0);
        assert_eq!(env.with_page(f, p, |d| d[0]).unwrap(), 7);
    }

    #[test]
    fn rollback_restores_pre_images_in_reverse() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let p0 = env.allocate_page(f).unwrap();
        let p1 = env.allocate_page(f).unwrap();
        env.with_page_mut(f, p0, |d| d[0] = 1).unwrap();
        env.with_page_mut(f, p1, |d| d[0] = 2).unwrap();
        let txn = env.begin_txn();
        {
            let _scope = txn.install();
            env.with_page_mut(f, p0, |d| d[0] = 10).unwrap();
            env.with_page_mut(f, p1, |d| d[0] = 20).unwrap();
            env.with_page_mut(f, p0, |d| d[0] = 11).unwrap();
        }
        txn.rollback().unwrap();
        assert_eq!(env.with_page(f, p0, |d| d[0]).unwrap(), 1);
        assert_eq!(env.with_page(f, p1, |d| d[0]).unwrap(), 2);
        // Idempotent.
        txn.rollback().unwrap();
        assert!(matches!(
            txn.commit(),
            Err(StorageError::TxnInactive { .. })
        ));
    }

    #[test]
    fn dropping_last_handle_rolls_back() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let p = env.allocate_page(f).unwrap();
        {
            let txn = env.begin_txn();
            let clone = txn.clone();
            let _scope = txn.install();
            env.with_page_mut(f, p, |d| d[0] = 42).unwrap();
            drop(clone); // not the last handle: nothing happens
            assert!(txn.is_active());
        }
        // Scope and last handle dropped: auto-rollback ran.
        assert_eq!(env.with_page(f, p, |d| d[0]).unwrap(), 0);
        assert_eq!(env.txns().active_count(), 0);
    }

    #[test]
    fn conflicting_writers_serialize() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let p = env.allocate_page(f).unwrap();
        let t1 = env.begin_txn();
        {
            let _s = t1.install();
            env.with_page_mut(f, p, |d| d[0] = 1).unwrap();
        }
        let env2 = env.clone();
        let waiter = std::thread::spawn(move || {
            let t2 = env2.begin_txn();
            let _s = t2.install();
            // Blocks until t1 commits, then sees t1's write.
            let seen = env2.with_page_mut(f, p, |d| {
                let v = d[0];
                d[0] = 2;
                v
            });
            t2.commit().unwrap();
            seen
        });
        std::thread::sleep(Duration::from_millis(50));
        t1.commit().unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), 1);
        assert_eq!(env.with_page(f, p, |d| d[0]).unwrap(), 2);
    }

    #[test]
    fn deadlock_victim_aborts_and_other_proceeds() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let pa = env.allocate_page(f).unwrap();
        let pb = env.allocate_page(f).unwrap();
        let t1 = env.begin_txn();
        {
            let _s = t1.install();
            env.with_page_mut(f, pa, |d| d[0] = 1).unwrap();
        }
        let env2 = env.clone();
        let other = std::thread::spawn(move || {
            let t2 = env2.begin_txn();
            let _s = t2.install();
            env2.with_page_mut(f, pb, |d| d[0] = 2).unwrap();
            // Now wait for pa (held by t1) — t1 will come for pb, closing
            // the cycle; exactly one of the two is the victim.
            let r = env2.with_page_mut(f, pa, |d| d[0] = 22);
            match r {
                Ok(()) => {
                    t2.commit().unwrap();
                    Ok(())
                }
                Err(e) => Err(e),
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        let mine = {
            let _s = t1.install();
            env.with_page_mut(f, pb, |d| d[0] = 11)
        };
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
        let f = env.create_file("t").unwrap();
        let p = env.allocate_page(f).unwrap();
        let t1 = env.begin_txn();
        let t2 = env.begin_txn();
        {
            let _s = t1.install();
            env.with_page(f, p, |_| ()).unwrap();
        }
        {
            let _s = t2.install();
            env.with_page(f, p, |_| ()).unwrap(); // S + S: fine
        }
        // Upgrade contest: t1 wants X while t2 holds S and vice versa is
        // the classic upgrade deadlock; here only t1 upgrades, so it just
        // waits until t2 ends.
        let env2 = env.clone();
        let t1c = t1.clone();
        let up = std::thread::spawn(move || {
            let _s = t1c.install();
            env2.with_page_mut(f, p, |d| d[0] = 9)
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!up.is_finished(), "upgrade must wait for the S holder");
        t2.commit().unwrap();
        up.join().unwrap().unwrap();
        t1.commit().unwrap();
        assert_eq!(env.with_page(f, p, |d| d[0]).unwrap(), 9);
    }

    #[test]
    fn no_txn_installed_means_no_locking() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let p = env.allocate_page(f).unwrap();
        let txn = env.begin_txn();
        {
            let _s = txn.install();
            env.with_page_mut(f, p, |d| d[0] = 5).unwrap();
        }
        // A plain (auto-commit) access on another thread ignores the lock
        // table entirely — the single-user fast path.
        let env2 = env.clone();
        std::thread::spawn(move || env2.with_page(f, p, |d| d[0]).unwrap())
            .join()
            .unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn counters_track_lifecycle() {
        let env = mem_env();
        let f = env.create_file("t").unwrap();
        let p = env.allocate_page(f).unwrap();
        let c = &env.txns().counters;
        let t1 = env.begin_txn();
        {
            let _s = t1.install();
            env.with_page_mut(f, p, |d| d[0] = 1).unwrap();
        }
        t1.commit().unwrap();
        let t2 = env.begin_txn();
        t2.rollback().unwrap();
        assert_eq!(c.begins.get(), 2);
        assert_eq!(c.commits.get(), 1);
        assert_eq!(c.rollbacks.get(), 1);
    }
}
