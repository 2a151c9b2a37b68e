//! The storage environment: a set of named paged files sharing one buffer
//! pool (the analogue of a Berkeley DB environment).
//!
//! Internally the environment splits into three cooperating components:
//! the **pager** (file table + buffer pool — everything about resolving a
//! `(FileId, PageId)` to bytes), the **transaction manager**
//! ([`crate::txn`] — name locks, commit and rollback), and the
//! **write-ahead log** ([`crate::wal`] — commit records and recovery). The
//! pager's file table is under a reader/writer lock: page accesses only
//! ever read it, so lookups never serialize behind file create/drop.
//! The file table is also the **catalog** the log records (see
//! [`crate::wal`]).
//!
//! Every file is written once, in page order, through a
//! [`PageAppender`], and then only read through the pool. On a logged
//! (on-disk) environment a file is immutable once committed: a change is a
//! new file built inside a [`Txn`] and published by its commit, or a
//! committed file retired by one. Creating or removing a file that is not
//! scratch needs a transaction installed on the calling thread
//! ([`StorageError::NoTxn`] otherwise), and only that transaction's new
//! files can be appended to ([`StorageError::Immutable`] otherwise).
//! Reads need no transaction and take no locks; a reader that must not
//! see its files vanish pins them ([`Env::pin_files`]). In-memory
//! environments have no log, so untransacted writes stay allowed there.

use crate::append::PageAppender;
use crate::backend::{Backend, FileBackend, MemBackend};
use crate::buffer::{BufferPool, IoSnapshot, IoStats};
use crate::error::StorageError;
use crate::fault::FaultState;
use crate::page::{PageId, DEFAULT_PAGE_SIZE};
use crate::txn::{self, LockMode, Txn, TxnManager};
use crate::wal::{self, Appended, RecoveryReport, Wal, WAL_CHECKPOINT_BYTES};
use crate::Result;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xmldb_obs::{span, Gauge, Registry};

/// Decorates backends as the environment creates them (name, raw backend) —
/// the hook fault-injection wrappers use. See [`Env::open_dir_with_decorator`].
pub type BackendDecorator = Arc<dyn Fn(&str, Arc<dyn Backend>) -> Arc<dyn Backend> + Send + Sync>;

/// Prefix of anonymous scratch files: writable without a transaction,
/// never in the catalog, and removed by recovery.
pub(crate) const TEMP_PREFIX: &str = "__tmp-";

/// Identifier of an open file within an [`Env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Environment configuration.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Page size in bytes for every file of the environment.
    pub page_size: usize,
    /// Buffer-pool budget in bytes. The efficiency tests of the paper used
    /// 20 MB; the default here is 4 MiB, adequate for the scaled-down
    /// workloads.
    pub pool_bytes: usize,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            page_size: DEFAULT_PAGE_SIZE,
            pool_bytes: 4 << 20,
        }
    }
}

impl EnvConfig {
    /// Configuration with a pool of exactly `bytes` bytes.
    pub fn with_pool_bytes(bytes: usize) -> EnvConfig {
        EnvConfig {
            pool_bytes: bytes,
            ..EnvConfig::default()
        }
    }
}

/// Where a file stands in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileState {
    /// Scratch file: writable without a transaction, private to its query.
    Temp,
    /// Created by the transaction with this id and not committed yet:
    /// built unlogged and seen by that transaction only; recovery deletes
    /// it.
    New(u64),
    /// In the catalog; read-only on a logged environment.
    Committed,
    /// Dropped by a committed transaction: out of the catalog and its name
    /// free, kept only until the last [`FilePins`] holding it goes.
    Dropped,
}

struct FileEntry {
    backend: Arc<dyn Backend>,
    name: String,
    state: FileState,
    /// Live [`FilePins`] holding this file.
    pins: usize,
}

struct FileTable {
    by_name: HashMap<String, FileId>,
    by_id: HashMap<FileId, FileEntry>,
    next: u32,
    /// Committed files not opened yet, with their page counts.
    unopened: HashMap<String, u64>,
}

impl FileTable {
    /// Forgets `id`, and its name unless a newer file took it over.
    fn remove(&mut self, id: FileId) -> Option<FileEntry> {
        let entry = self.by_id.remove(&id)?;
        if self.by_name.get(&entry.name) == Some(&id) {
            self.by_name.remove(&entry.name);
        }
        Some(entry)
    }

    /// The catalog: every committed file and its page count.
    fn catalog(&self) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = self
            .unopened
            .iter()
            .map(|(name, &pages)| (name.clone(), pages))
            .collect();
        files.extend(
            self.by_id
                .values()
                .filter(|e| e.state == FileState::Committed)
                .map(|e| (e.name.clone(), e.backend.page_count())),
        );
        files
    }
}

/// The pager: everything about resolving pages to bytes — the file table
/// and the buffer pool. Page accesses take the table's read lock only.
struct Pager {
    files: RwLock<FileTable>,
    pool: BufferPool,
    next_temp: Mutex<u64>,
}

struct EnvInner {
    config: EnvConfig,
    /// Directory for on-disk environments; `None` keeps everything in RAM.
    dir: Option<PathBuf>,
    pager: Pager,
    /// Transaction bookkeeping: ids, the lock table, live transactions.
    txns: TxnManager,
    /// Metrics registry every layer of this environment publishes into —
    /// pool/WAL/B+-tree counters here, engine latency histograms in core.
    registry: Arc<Registry>,
    /// Write-ahead log; present for every on-disk environment.
    wal: Option<Wal>,
    /// What recovery did when this environment was opened.
    recovery: Option<RecoveryReport>,
    /// Wraps backends at creation time (fault injection in tests).
    decorator: Option<BackendDecorator>,
    /// Degraded read-only mode, latched when a WAL append or sync fails
    /// with [`StorageError::NoSpace`]. Queries keep running; writes to
    /// durable files are refused until [`Env::try_exit_read_only`].
    read_only: AtomicBool,
    /// Mirrors `read_only` for scrapes (`saardb_env_read_only`).
    read_only_gauge: Arc<Gauge>,
}

/// A storage environment. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Env {
    inner: Arc<EnvInner>,
}

impl Env {
    /// Creates an in-memory environment with default configuration.
    pub fn memory() -> Env {
        Env::memory_with(EnvConfig::default())
    }

    /// Creates an in-memory environment with explicit configuration.
    pub fn memory_with(config: EnvConfig) -> Env {
        Env::build(None, config)
    }

    /// Opens (creating if needed) an on-disk environment rooted at `dir`.
    ///
    /// Before any data file is touched, the directory's write-ahead log is
    /// replayed: the catalog is rebuilt from the last checkpoint and the
    /// commit records after it, every other data file is deleted, and a
    /// torn log tail is discarded — see [`crate::wal`]. The resulting
    /// [`RecoveryReport`] is available via [`Env::recovery_report`].
    pub fn open_dir(dir: impl Into<PathBuf>, config: EnvConfig) -> Result<Env> {
        Env::open_dir_inner(dir.into(), config, None)
    }

    /// [`Env::open_dir`] with a [`BackendDecorator`] applied to every
    /// backend the environment creates — the hook the crash-torture
    /// harness uses to wrap files in [`crate::fault::FaultBackend`].
    /// Recovery itself runs on the raw files, never through the decorator.
    pub fn open_dir_with_decorator(
        dir: impl Into<PathBuf>,
        config: EnvConfig,
        decorator: BackendDecorator,
    ) -> Result<Env> {
        Env::open_dir_inner(dir.into(), config, Some(decorator))
    }

    fn open_dir_inner(
        dir: PathBuf,
        config: EnvConfig,
        decorator: Option<BackendDecorator>,
    ) -> Result<Env> {
        std::fs::create_dir_all(&dir)?;
        let recovery = wal::replay(&dir)?;
        let wal = Wal::open(&dir)?;
        // Every data file recovery left is committed: the catalog.
        let mut unopened = HashMap::new();
        for entry in std::fs::read_dir(&dir)?.flatten() {
            if let Some(name) = entry.file_name().to_string_lossy().strip_suffix(".sdb") {
                let pages = entry.metadata()?.len() / config.page_size as u64;
                unopened.insert(name.to_string(), pages);
            }
        }
        let env = Env::build_inner(Some(dir), config, Some(wal), Some(recovery), decorator);
        env.inner.pager.files.write().unopened = unopened;
        env.checkpoint_log(env.wal_bytes().unwrap_or(0))?;
        Ok(env)
    }

    fn build(dir: Option<PathBuf>, config: EnvConfig) -> Env {
        Env::build_inner(dir, config, None, None, None)
    }

    fn build_inner(
        dir: Option<PathBuf>,
        config: EnvConfig,
        wal: Option<Wal>,
        recovery: Option<RecoveryReport>,
        decorator: Option<BackendDecorator>,
    ) -> Env {
        let frames = (config.pool_bytes / config.page_size).max(8);
        let registry = Arc::new(Registry::new());
        let pool = BufferPool::with_registry(frames, config.page_size, &registry);
        registry
            .gauge("saardb_pool_frames", &[])
            .set(pool.capacity() as i64);
        registry
            .gauge("saardb_pool_shards", &[])
            .set(pool.shard_count() as i64);
        registry
            .gauge("saardb_env_on_disk", &[])
            .set(i64::from(dir.is_some()));
        let read_only_gauge = registry.gauge("saardb_env_read_only", &[]);
        let txns = TxnManager::new(&registry);
        Env {
            inner: Arc::new(EnvInner {
                config,
                dir,
                pager: Pager {
                    files: RwLock::new(FileTable {
                        by_name: HashMap::new(),
                        by_id: HashMap::new(),
                        next: 0,
                        unopened: HashMap::new(),
                    }),
                    pool,
                    next_temp: Mutex::new(0),
                },
                txns,
                registry,
                wal,
                recovery,
                decorator,
                read_only: AtomicBool::new(false),
                read_only_gauge,
            }),
        }
    }

    /// What recovery did when this on-disk environment was opened; `None`
    /// for in-memory environments.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.inner.recovery.as_ref()
    }

    /// Current write-ahead-log length in bytes (`None` when in memory).
    pub fn wal_bytes(&self) -> Option<u64> {
        self.inner.wal.as_ref().map(|w| w.len())
    }

    /// Page size of this environment.
    pub fn page_size(&self) -> usize {
        self.inner.config.page_size
    }

    /// Buffer pool frame count.
    pub fn pool_frames(&self) -> usize {
        self.inner.pager.pool.capacity()
    }

    /// True if the environment is backed by a directory on disk.
    pub fn is_on_disk(&self) -> bool {
        self.inner.dir.is_some()
    }

    /// True if `other` is a clone of this environment (same shared state).
    pub(crate) fn same_env(&self, other: &Env) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The transaction manager (lock table, live transactions, counters).
    pub(crate) fn txns(&self) -> &TxnManager {
        &self.inner.txns
    }

    /// True while the environment is in read-only degraded mode: a WAL
    /// append or sync hit `ENOSPC`, so writes to durable files are refused
    /// ([`StorageError::ReadOnly`]) while reads keep being served. Scratch
    /// (`__tmp-`) files are exempt — they are never logged, so read-only
    /// queries can still spill.
    pub fn is_read_only(&self) -> bool {
        self.inner.read_only.load(Ordering::SeqCst)
    }

    /// Latches read-only degraded mode (idempotent; counts transitions in
    /// `saardb_env_no_space_total`, mirrors state in `saardb_env_read_only`).
    pub(crate) fn enter_read_only(&self) {
        if !self.inner.read_only.swap(true, Ordering::SeqCst) {
            self.inner.read_only_gauge.set(1);
            self.inner
                .registry
                .counter("saardb_env_no_space_total", &[])
                .inc();
        }
    }

    /// Routes a WAL-operation result through the degraded-mode latch: an
    /// `Err(NoSpace)` flips the environment read-only before propagating.
    /// Every WAL append/sync call site goes through here so no out-of-space
    /// failure can be dropped on the floor.
    pub(crate) fn note_wal<T>(&self, r: Result<T>) -> Result<T> {
        if matches!(r, Err(StorageError::NoSpace)) {
            self.enter_read_only();
        }
        r
    }

    /// Attempts to leave read-only degraded mode. Returns `Ok(true)` when
    /// the environment is (now) writable, `Ok(false)` when exit must wait
    /// for in-flight transactions to drain, and `Err` when the volume is
    /// still full (the probe flush/checkpoint failed — stay degraded).
    ///
    /// The probe is a [`Env::checkpoint`], which rewrites the log as one
    /// record. The server's watchdog calls this periodically, so recovery
    /// is automatic once space is reclaimed.
    pub fn try_exit_read_only(&self) -> Result<bool> {
        if !self.is_read_only() {
            return Ok(true);
        }
        if self.inner.txns.active_count() > 0 {
            return Ok(false);
        }
        self.checkpoint()?;
        self.inner.read_only.store(false, Ordering::SeqCst);
        self.inner.read_only_gauge.set(0);
        Ok(true)
    }

    /// Refuses writes to durable state while degraded.
    fn check_writable(&self) -> Result<()> {
        if self.is_read_only() {
            return Err(StorageError::ReadOnly);
        }
        Ok(())
    }

    /// Refuses a durable change outside a transaction on a logged
    /// environment.
    fn check_txn(&self) -> Result<()> {
        if self.inner.wal.is_some() && !self.in_txn() {
            return Err(StorageError::NoTxn);
        }
        Ok(())
    }

    /// The [`PageAppender`] that builds `file`. On a logged environment
    /// only scratch files and the installed transaction's new files can be
    /// written ([`StorageError::Immutable`] otherwise), and only scratch
    /// ones while degraded ([`StorageError::ReadOnly`]).
    pub fn appender(&self, file: FileId) -> Result<PageAppender> {
        let table = self.inner.pager.files.read();
        let entry = table
            .by_id
            .get(&file)
            .ok_or_else(|| StorageError::NoSuchFile(format!("{file}")))?;
        let scratch = entry.state == FileState::Temp;
        if self.inner.wal.is_some() && !scratch {
            if self.is_read_only() {
                return Err(StorageError::ReadOnly);
            }
            if txn::installed_id(self).map(FileState::New) != Some(entry.state) {
                return Err(StorageError::Immutable(entry.name.clone()));
            }
        }
        let backend = Arc::clone(&entry.backend);
        Ok(PageAppender::new(self, file, backend, scratch))
    }

    /// Attaches a fault plan to the write-ahead log so its `wal_no_space`
    /// knob can simulate a full volume (see
    /// [`FaultState::set_wal_no_space`]). The WAL writes through a plain
    /// file handle, outside the [`BackendDecorator`] path, so the chaos
    /// harness injects here instead. No-op for in-memory environments.
    pub fn inject_wal_faults(&self, faults: &Arc<FaultState>) {
        if let Some(wal) = &self.inner.wal {
            wal.set_faults(faults);
        }
    }

    fn disk_path(&self, name: &str) -> Option<PathBuf> {
        self.inner
            .dir
            .as_ref()
            .map(|d| d.join(format!("{name}.sdb")))
    }

    fn register(
        &self,
        table: &mut FileTable,
        name: String,
        backend: Arc<dyn Backend>,
        state: FileState,
    ) -> FileId {
        let backend = match &self.inner.decorator {
            Some(wrap) => wrap(&name, backend),
            None => backend,
        };
        let id = FileId(table.next);
        table.next += 1;
        table.unopened.remove(&name);
        table.by_name.insert(name.clone(), id);
        table.by_id.insert(
            id,
            FileEntry {
                backend,
                name,
                state,
                pins: 0,
            },
        );
        id
    }

    /// Creates a new file named `name`; errors if it already exists (in
    /// this environment, uncommitted or not, or on disk). A durable file
    /// belongs to the transaction installed on this thread and commits
    /// with it; without one a logged environment refuses
    /// ([`StorageError::NoTxn`]) and an in-memory one commits it at once.
    pub fn create_file(&self, name: &str) -> Result<FileId> {
        let state = if name.starts_with(TEMP_PREFIX) {
            FileState::Temp
        } else {
            self.check_writable()?;
            self.check_txn()?;
            txn::installed_id(self).map_or(FileState::Committed, FileState::New)
        };
        let mut table = self.inner.pager.files.write();
        if table.by_name.contains_key(name) {
            return Err(StorageError::FileExists(name.to_string()));
        }
        let backend: Arc<dyn Backend> = match self.disk_path(name) {
            Some(path) => {
                if path.exists() {
                    return Err(StorageError::FileExists(name.to_string()));
                }
                Arc::new(FileBackend::open(&path, self.page_size())?)
            }
            None => Arc::new(MemBackend::new(self.page_size())),
        };
        Ok(self.register(&mut table, name.to_string(), backend, state))
    }

    /// Opens an existing file named `name` (possibly persisted by a
    /// previous environment over the same directory).
    pub fn open_file(&self, name: &str) -> Result<FileId> {
        self.open_in(&mut self.inner.pager.files.write(), name)
    }

    /// Resolves `name` in the file table, or opens it if recovery's
    /// catalog lists it. A file on disk outside the catalog is not opened:
    /// a dropped one stays there from its commit record to its unlink.
    fn open_in(&self, table: &mut FileTable, name: &str) -> Result<FileId> {
        if let Some(&id) = table.by_name.get(name) {
            return Ok(id);
        }
        match self.disk_path(name) {
            Some(path) if table.unopened.contains_key(name) => {
                let backend: Arc<dyn Backend> =
                    Arc::new(FileBackend::open(&path, self.page_size())?);
                Ok(self.register(table, name.to_string(), backend, FileState::Committed))
            }
            _ => Err(StorageError::NoSuchFile(name.to_string())),
        }
    }

    /// Opens the files `names` and pins them, all or none, in one step
    /// under the file-table lock: no commit falls between two of them, so
    /// they are one committed version (or the installed transaction's own
    /// new files). While the returned [`FilePins`] lives, a committed drop
    /// of any of them takes the names out of the catalog and unlinks the
    /// files, but their pages stay readable through the open handles and
    /// their frames stay in the pool; the last pin to go frees them. Fails
    /// with [`StorageError::NoSuchFile`] naming the first file that is
    /// absent or another transaction's uncommitted one.
    pub fn pin_files(&self, names: &[&str]) -> Result<FilePins> {
        let owner = txn::installed_id(self);
        let mut table = self.inner.pager.files.write();
        let mut ids = Vec::with_capacity(names.len());
        for &name in names {
            let id = self.open_in(&mut table, name)?;
            if matches!(table.by_id[&id].state, FileState::New(o) if Some(o) != owner) {
                return Err(StorageError::NoSuchFile(name.to_string()));
            }
            ids.push(id);
        }
        for id in &ids {
            if let Some(e) = table.by_id.get_mut(id) {
                e.pins += 1;
            }
        }
        Ok(FilePins {
            env: self.clone(),
            ids,
        })
    }

    /// Releases one pin on each of `ids`; a dropped file whose last pin
    /// this was is forgotten, and its frames with it.
    fn unpin(&self, ids: &[FileId]) {
        let mut last = Vec::new();
        {
            let mut table = self.inner.pager.files.write();
            for id in ids {
                if let Some(e) = table.by_id.get_mut(id) {
                    e.pins -= 1;
                    if e.pins == 0 && e.state == FileState::Dropped {
                        last.push(*id);
                    }
                }
            }
            for &id in &last {
                table.remove(id);
            }
        }
        // Outside the file-table lock: a miss takes a shard lock, then the
        // file table's.
        for id in last {
            self.inner.pager.pool.invalidate_file(id);
        }
    }

    /// Opens `name` if present, creating it otherwise.
    pub fn open_or_create(&self, name: &str) -> Result<FileId> {
        match self.open_file(name) {
            Ok(id) => Ok(id),
            Err(StorageError::NoSuchFile(_)) => self.create_file(name),
            Err(e) => Err(e),
        }
    }

    /// True if `name` is a committed file, a scratch file, or a file the
    /// transaction installed on this thread created. Another transaction's
    /// uncommitted files stay invisible until it commits.
    pub fn file_exists(&self, name: &str) -> bool {
        let table = self.inner.pager.files.read();
        if table.unopened.contains_key(name) {
            return true;
        }
        let entry = table.by_name.get(name).and_then(|id| table.by_id.get(id));
        match entry.map(|e| e.state) {
            Some(FileState::New(owner)) => txn::installed_id(self) == Some(owner),
            found => found.is_some(),
        }
    }

    /// Creates an anonymous scratch file. Prefer [`crate::TempFile`], which
    /// removes it automatically.
    pub fn create_temp_file(&self) -> Result<FileId> {
        let n = {
            let mut next = self.inner.pager.next_temp.lock();
            *next += 1;
            *next
        };
        self.create_file(&format!("__tmp-{}-{n}", std::process::id()))
    }

    /// Removes a file; see [`Env::remove_files`].
    pub fn remove_file(&self, id: FileId) -> Result<()> {
        self.remove_files(&[id])
    }

    /// Removes files. Scratch files and the installed transaction's own
    /// uncommitted ones go at once (frames, entry, disk file). Committed
    /// files leave at the installed transaction's commit; a logged
    /// environment refuses to remove a durable file without one
    /// ([`StorageError::NoTxn`]), an in-memory one drops it at once. A
    /// dropped file that is still pinned stays readable to its pinners
    /// (see [`Env::pin_files`]), and a page already fetched stays readable
    /// whatever is removed.
    pub fn remove_files(&self, ids: &[FileId]) -> Result<()> {
        let (mut states, mut committed) = (Vec::with_capacity(ids.len()), Vec::new());
        for &id in ids {
            let state = self
                .file_state(id)
                .filter(|&s| s != FileState::Dropped)
                .ok_or_else(|| StorageError::NoSuchFile(format!("{id}")))?;
            if state == FileState::Committed {
                committed.push(id);
            }
            states.push(state);
        }
        if states.iter().any(|&s| s != FileState::Temp) {
            self.check_txn()?;
        }
        if !committed.is_empty() && !txn::defer_drops(self, &committed)? {
            self.publish(&[], &committed)?;
            self.retire(&committed);
        }
        for (&id, &state) in ids.iter().zip(&states) {
            if state != FileState::Committed {
                self.discard(id)?;
            }
        }
        Ok(())
    }

    /// Removes a file at once, logging nothing: an uncommitted or scratch
    /// file. Works even while the environment is read-only.
    pub(crate) fn discard(&self, id: FileId) -> Result<()> {
        let entry = self.inner.pager.files.write().remove(id);
        let entry = entry.ok_or_else(|| StorageError::NoSuchFile(format!("{id}")))?;
        self.inner.pager.pool.invalidate_file(id);
        if let Some(path) = entry.backend.path() {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }

    /// A commit's catalog change: under the file-table lock (so records
    /// reach the log in catalog order), appends the commit record — the
    /// `added` files with their page counts and the `dropped` names — then
    /// applies it: the added files are committed, and the dropped ones
    /// leave the catalog and free their names. The commit pins each
    /// dropped file until [`Env::retire`] has unlinked it, so a reader's
    /// last unpin cannot forget the file before then.
    pub(crate) fn publish(&self, added: &[FileId], dropped: &[FileId]) -> Result<Option<Appended>> {
        let mut guard = self.inner.pager.files.write();
        let FileTable { by_id, by_name, .. } = &mut *guard;
        let mut appended = None;
        if let Some(wal) = &self.inner.wal {
            let adds = added.iter().filter_map(|id| by_id.get(id));
            let drops = dropped.iter().filter_map(|id| by_id.get(id));
            let a = self.note_wal(
                wal.append_commit(
                    adds.map(|e| (e.name.clone(), e.backend.page_count()))
                        .collect(),
                    drops.map(|e| e.name.clone()).collect(),
                ),
            )?;
            let stats = self.inner.pager.pool.stats();
            stats.wal_appends.inc();
            stats.wal_bytes.add(a.bytes);
            appended = Some(a);
        }
        for id in added {
            if let Some(e) = by_id.get_mut(id) {
                e.state = FileState::Committed;
            }
        }
        for id in dropped {
            // A commit retried after a failed log fsync publishes again.
            if let Some(e) = by_id.get_mut(id).filter(|e| e.state != FileState::Dropped) {
                e.state = FileState::Dropped;
                e.pins += 1;
                if by_name.get(&e.name) == Some(id) {
                    by_name.remove(&e.name);
                }
            }
        }
        Ok(appended)
    }

    /// After the commit that dropped `ids`: unlinks their disk files — a
    /// reader still pinning one keeps reading its open handle — and
    /// releases the commit's pins, forgetting the files no reader holds. Best
    /// effort: a file left on disk is outside the catalog, so recovery
    /// deletes it.
    pub(crate) fn retire(&self, ids: &[FileId]) {
        for &id in ids {
            if let Ok(backend) = self.backend(id) {
                if let Some(path) = backend.path() {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        self.unpin(ids);
    }

    /// Makes the log durable up to `end`; true if this call fsynced.
    pub(crate) fn sync_wal(&self, end: u64) -> Result<bool> {
        let Some(wal) = &self.inner.wal else {
            return Ok(false);
        };
        let synced = self.note_wal(wal.sync_to(end))?;
        if synced {
            self.inner.pager.pool.stats().wal_syncs.inc();
        }
        Ok(synced)
    }

    /// The uncommitted files transaction `owner` created.
    pub(crate) fn new_files(&self, owner: u64) -> Vec<FileId> {
        let table = self.inner.pager.files.read();
        let new = table
            .by_id
            .iter()
            .filter(|(_, e)| e.state == FileState::New(owner));
        new.map(|(&id, _)| id).collect()
    }

    /// Fsyncs new files and the directory once, ahead of the record that
    /// commits them. Their pages went straight to the files when they were
    /// built, so there is nothing to write back. A failed fsync may have
    /// dropped writes it did not flush, so no retry can prove the files
    /// whole: the caller rolls the transaction back.
    pub(crate) fn make_durable(&self, files: &[FileId]) -> Result<()> {
        if files.is_empty() {
            return Ok(());
        }
        for &file in files {
            self.backend(file)?.sync()?;
        }
        if let Some(dir) = &self.inner.dir {
            wal::sync_dir(dir);
        }
        Ok(())
    }

    /// Names of the committed files, in name order: the catalog.
    pub fn committed_files(&self) -> Vec<String> {
        let table = self.inner.pager.files.read();
        let mut names: Vec<String> = table.catalog().into_iter().map(|(n, _)| n).collect();
        names.sort();
        names
    }

    fn backend(&self, id: FileId) -> Result<Arc<dyn Backend>> {
        let table = self.inner.pager.files.read();
        table
            .by_id
            .get(&id)
            .map(|e| Arc::clone(&e.backend))
            .ok_or_else(|| StorageError::NoSuchFile(format!("{id}")))
    }

    /// Catalog state of an open file, if it is still open.
    fn file_state(&self, id: FileId) -> Option<FileState> {
        let table = self.inner.pager.files.read();
        table.by_id.get(&id).map(|e| e.state)
    }

    /// Number of pages in `file`.
    pub fn page_count(&self, file: FileId) -> Result<u64> {
        Ok(self.backend(file)?.page_count())
    }

    /// True if a transaction on this environment is installed on the
    /// calling thread (see [`Txn::install`]).
    pub fn in_txn(&self) -> bool {
        txn::installed_id(self).is_some()
    }

    /// Begins a transaction on this environment. The handle is inert until
    /// [`Txn::install`]ed on a thread; see [`crate::txn`] for the locking
    /// and commit protocol. Its commit is the only way durable state
    /// changes on a logged environment.
    pub fn begin_txn(&self) -> Txn {
        Txn::begin(self)
    }

    /// Takes (or upgrades to) `mode` on `name` for the transaction on this
    /// environment installed on this thread, held until it ends; without
    /// one, a no-op: an autocommit reader takes no locks. Blocks while
    /// another transaction holds a conflicting lock. On deadlock the
    /// installed transaction — the victim — is rolled back before
    /// [`StorageError::Deadlock`] returns, so its locks are already free.
    pub fn lock(&self, name: &str, mode: LockMode) -> Result<()> {
        match txn::installed_on(self) {
            Some(txn) => txn.lock(name, mode),
            None => Ok(()),
        }
    }

    /// Runs `work` in the transaction on this environment installed on
    /// this thread, or else in its own: begin, install, work, commit — and
    /// on any error, roll back (which deletes the files it created).
    pub fn autocommit<T, E: From<StorageError>>(
        &self,
        work: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        if self.in_txn() {
            return work();
        }
        let txn = self.begin_txn();
        let done = {
            let _scope = txn.install();
            work()
        };
        let done = done.and_then(|v| {
            txn.commit()?;
            Ok(v)
        });
        if done.is_err() {
            let _ = txn.rollback();
        }
        done
    }

    /// Number of live transactions on this environment.
    pub fn active_txns(&self) -> usize {
        self.inner.txns.active_count()
    }

    /// The contents of a page, shared with the buffer pool: the handle
    /// stays valid after the page is evicted or its file removed, because
    /// no page changes once written.
    pub fn page(&self, file: FileId, page: PageId) -> Result<Arc<[u8]>> {
        let pool = &self.inner.pager.pool;
        pool.page(file, page, &|f| self.backend(f))
    }

    /// Truncates the write-ahead log once it outgrows
    /// [`WAL_CHECKPOINT_BYTES`], as a commit does (see [`Env::checkpoint`]).
    /// It commits nothing — [`Txn::commit`] is the only commit point — and
    /// writes no data page: every committed file was fsynced by its commit.
    pub fn flush(&self) -> Result<()> {
        match self.wal_bytes() {
            Some(len) if len > WAL_CHECKPOINT_BYTES => self.checkpoint(),
            _ => Ok(()),
        }
    }

    /// Truncates the write-ahead log. The explicit form of the periodic
    /// checkpoint [`Env::flush`] and [`Txn::commit`] apply by threshold; a
    /// no-op for in-memory environments. Skipped while any transaction is
    /// in flight, or when one committed since it began.
    pub fn checkpoint(&self) -> Result<()> {
        let _span = span("storage.flush");
        let Some(start) = self.wal_bytes() else {
            return Ok(());
        };
        if self.inner.txns.active_count() == 0 && self.checkpoint_log(start)? {
            self.inner
                .registry
                .counter("saardb_wal_checkpoint_bytes_total", &[])
                .add(start);
        }
        Ok(())
    }

    /// Replaces the log with one checkpoint carrying the catalog, under
    /// the file-table lock like every commit record — unless the log is
    /// no longer `start` bytes long: a commit appended since the
    /// checkpoint began may still be waiting for its log fsync. Returns
    /// whether it checkpointed.
    fn checkpoint_log(&self, start: u64) -> Result<bool> {
        let Some(wal) = &self.inner.wal else {
            return Ok(false);
        };
        let table = self.inner.pager.files.write();
        self.note_wal(wal.checkpoint(self.page_size(), table.catalog(), start))
    }

    /// True if this environment has a write-ahead log (on-disk
    /// environments only). EXPLAIN ANALYZE uses this to omit WAL lines —
    /// rather than print zeros — when no log exists.
    pub fn has_wal(&self) -> bool {
        self.inner.wal.is_some()
    }

    /// The metrics registry all layers of this environment publish into.
    /// Storage registers pool/WAL/B+-tree counters at construction; the
    /// engine layers add latency histograms and governor trip counters to
    /// the same registry, so one exposition covers the whole stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Buffer-pool traffic counters.
    pub fn io_stats(&self) -> IoSnapshot {
        self.inner.pager.pool.stats().snapshot()
    }

    /// Live counter handle (B+-tree read-path instrumentation).
    pub(crate) fn counters(&self) -> &IoStats {
        self.inner.pager.pool.stats()
    }

    /// Zeroes the traffic counters (between benchmark runs).
    pub fn reset_io_stats(&self) {
        self.inner.pager.pool.stats().reset();
    }

    /// Number of buffer-pool frames whose page a reader still holds. Zero
    /// whenever no operation is in flight; the cancellation-torture sweep
    /// asserts this after every cancelled query.
    pub fn pinned_frames(&self) -> usize {
        self.inner.pager.pool.pinned_frames()
    }

    /// Names of scratch (`__tmp-`) files still present — registered in the
    /// file table or lying in the directory. Empty whenever no query is in
    /// flight: spill and materialization files are owned by
    /// [`crate::TempFile`] Drop guards, so even a cancelled or panicking
    /// query must leave nothing behind.
    pub fn temp_files(&self) -> Vec<String> {
        let mut names: Vec<String> = {
            let table = self.inner.pager.files.read();
            table
                .by_id
                .values()
                .filter(|e| e.state == FileState::Temp)
                .map(|e| e.name.clone())
                .collect()
        };
        if let Some(dir) = &self.inner.dir {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let file = entry.file_name().to_string_lossy().into_owned();
                    if let Some(stem) = file.strip_suffix(".sdb") {
                        if stem.starts_with(TEMP_PREFIX) {
                            names.push(stem.to_string());
                        }
                    }
                }
            }
        }
        names.sort();
        names.dedup();
        names
    }

    /// Number of live `Env` handles (clones of this environment). A
    /// supervisor that hands a clone to a worker thread can assert the
    /// worker is gone — not abandoned in the background — by watching the
    /// count return to its baseline after a join.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

/// Files held against drops — see [`Env::pin_files`]. Dropping it
/// releases the pins.
pub struct FilePins {
    env: Env,
    ids: Vec<FileId>,
}

impl FilePins {
    /// The pinned files, in the order their names were given.
    pub fn ids(&self) -> &[FileId] {
        &self.ids
    }
}

impl Drop for FilePins {
    fn drop(&mut self) {
        self.env.unpin(&self.ids);
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("dir", &self.inner.dir)
            .field("page_size", &self.inner.config.page_size)
            .field("pool_frames", &self.inner.pager.pool.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends one page to `f` whose first byte is `first`.
    fn append(env: &Env, f: FileId, first: u8) -> Result<PageId> {
        let mut app = env.appender(f)?;
        app.page()[0] = first;
        app.append()
    }

    #[test]
    fn memory_env_basic_page_io() {
        let env = Env::memory();
        let f = env.create_file("nodes").unwrap();
        let p = append(&env, f, 99).unwrap();
        let v = env.page(f, p).map(|data| data[0]).unwrap();
        assert_eq!(v, 99);
        assert_eq!(env.page_count(f).unwrap(), 1);
    }

    #[test]
    fn duplicate_create_rejected() {
        let env = Env::memory();
        env.create_file("x").unwrap();
        assert!(matches!(
            env.create_file("x"),
            Err(StorageError::FileExists(_))
        ));
    }

    #[test]
    fn open_missing_rejected() {
        let env = Env::memory();
        assert!(matches!(
            env.open_file("nope"),
            Err(StorageError::NoSuchFile(_))
        ));
    }

    #[test]
    fn open_or_create_is_idempotent() {
        let env = Env::memory();
        let a = env.open_or_create("y").unwrap();
        let b = env.open_or_create("y").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn remove_file_frees_name() {
        let env = Env::memory();
        let f = env.create_file("z").unwrap();
        env.remove_file(f).unwrap();
        assert!(!env.file_exists("z"));
        env.create_file("z").unwrap();
    }

    #[test]
    fn disk_env_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("saardb-env-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
            env.autocommit(|| {
                let f = env.create_file("persist")?;
                append(&env, f, 0x5A)
            })
            .unwrap();
        }
        {
            let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
            let f = env.open_file("persist").unwrap();
            let v = env.page(f, PageId(0)).map(|d| d[0]).unwrap();
            assert_eq!(v, 0x5A);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_budget_controls_frames() {
        let env = Env::memory_with(EnvConfig {
            page_size: 1024,
            pool_bytes: 16 * 1024,
        });
        assert_eq!(env.pool_frames(), 16);
    }

    #[test]
    fn io_stats_visible_through_env() {
        let env = Env::memory_with(EnvConfig {
            page_size: 512,
            pool_bytes: 8 * 512,
        });
        let f = env.create_file("s").unwrap();
        let pages: Vec<_> = (0..32).map(|i| append(&env, f, i).unwrap()).collect();
        for &p in &pages {
            env.page(f, p).unwrap();
        }
        let snap = env.io_stats();
        assert_eq!(snap.misses, 32);
        assert_eq!(snap.physical_writes, 32, "one write per appended page");
        // 32 pages through 8 frames: at least 24 evictions.
        assert!(snap.evictions >= 24, "evictions = {}", snap.evictions);
        env.reset_io_stats();
        assert_eq!(env.io_stats().requests(), 0);
    }

    #[test]
    fn temp_files_get_unique_names() {
        let env = Env::memory();
        let a = env.create_temp_file().unwrap();
        let b = env.create_temp_file().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn no_space_flips_read_only_and_recovers() {
        let dir = std::env::temp_dir().join(format!("saardb-env-nospace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        let (f, p) = env
            .autocommit(|| {
                let f = env.create_file("d")?;
                Ok::<_, StorageError>((f, append(&env, f, 1)?))
            })
            .unwrap();

        let faults = FaultState::new();
        env.inject_wal_faults(&faults);
        faults.set_wal_no_space(true);

        // A transactional commit fails typed and cleanly: rollback works,
        // the env latches read-only, no locks or frames stay pinned.
        let txn = env.begin_txn();
        {
            let _s = txn.install();
            let n = env.create_file("n").unwrap();
            append(&env, n, 0).unwrap();
        }
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, StorageError::NoSpace), "{err}");
        txn.rollback().unwrap();
        assert!(env.is_read_only());
        assert!(!env.file_exists("n"));
        assert_eq!(env.pinned_frames(), 0);

        // Degraded mode: reads fine, durable writes typed-refused, scratch
        // files still usable (read-only queries must be able to spill).
        assert_eq!(env.page(f, p).map(|d| d[0]).unwrap(), 1);
        let err = append(&env, f, 3).unwrap_err();
        assert!(matches!(err, StorageError::ReadOnly), "{err}");
        assert!(matches!(
            env.create_file("new"),
            Err(StorageError::ReadOnly)
        ));
        let tmp = env.create_temp_file().unwrap();
        append(&env, tmp, 9).unwrap();
        env.remove_file(tmp).unwrap();

        // Still full: the probe fails and the latch stays.
        assert!(env.try_exit_read_only().is_err());
        assert!(env.is_read_only());

        // Space reclaimed: the probe flushes, checkpoints, and clears.
        faults.set_wal_no_space(false);
        assert!(env.try_exit_read_only().unwrap());
        assert!(!env.is_read_only());
        let (g, q) = env
            .autocommit(|| {
                let g = env.create_file("after")?;
                Ok::<_, StorageError>((g, append(&env, g, 4)?))
            })
            .unwrap();
        env.flush().unwrap();
        assert_eq!(env.page(g, q).map(|d| d[0]).unwrap(), 4);

        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_skipped_while_txn_active() {
        let dir = std::env::temp_dir().join(format!("saardb-env-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        env.autocommit(|| {
            let f = env.create_file("t")?;
            append(&env, f, 0)
        })
        .unwrap();
        let txn = env.begin_txn();
        {
            let _s = txn.install();
            let u = env.create_file("u").unwrap();
            append(&env, u, 0).unwrap();
        }
        let logged = env.wal_bytes().unwrap();
        env.checkpoint().unwrap();
        // The commit that created "t" must survive: no truncation with a
        // live transaction.
        assert_eq!(env.wal_bytes().unwrap(), logged);
        txn.commit().unwrap();
        env.checkpoint().unwrap();
        // Quiescent now: the log holds exactly the fresh checkpoint record.
        let after = env.wal_bytes().unwrap();
        let env2 = Env::open_dir(&dir, EnvConfig::default());
        drop(env2);
        assert!(after < 64, "log not truncated: {after} bytes");
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn untransacted_durable_writes_on_disk_are_refused() {
        let dir = std::env::temp_dir().join(format!("saardb-env-notxn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        let (f, p) = env
            .autocommit(|| {
                let f = env.create_file("d")?;
                Ok::<_, StorageError>((f, append(&env, f, 1)?))
            })
            .unwrap();
        let wal = env.wal_bytes();
        let refused = [env.create_file("e").map(drop), env.remove_file(f)];
        for r in refused {
            assert!(matches!(r, Err(StorageError::NoTxn)), "{r:?}");
        }
        // A committed file is immutable, in a transaction or not.
        let txn = env.begin_txn();
        for installed in [false, true] {
            let _s = installed.then(|| txn.install());
            let r = env.appender(f).map(drop);
            assert!(
                matches!(&r, Err(StorageError::Immutable(n)) if n == "d"),
                "{r:?}"
            );
        }
        txn.commit().unwrap();
        // Nothing changed, nothing was logged, and the env stays usable:
        // reads, scratch files and transactions all work.
        assert_eq!(env.wal_bytes(), wal);
        assert_eq!(env.page_count(f).unwrap(), 1);
        assert!(!env.file_exists("e"));
        assert_eq!(env.page(f, p).map(|d| d[0]).unwrap(), 1);
        let tmp = env.create_temp_file().unwrap();
        append(&env, tmp, 9).unwrap();
        env.remove_file(tmp).unwrap();
        env.autocommit(|| env.remove_file(f)).unwrap();
        assert!(env.committed_files().is_empty());
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Only the transaction that created a new file can write it: not
    /// another transaction, and not the thread once it is uninstalled.
    #[test]
    fn a_new_file_is_writable_by_its_own_transaction_only() {
        let dir = std::env::temp_dir().join(format!("saardb-env-owner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        let (owner, other) = (env.begin_txn(), env.begin_txn());
        let g = {
            let _s = owner.install();
            let g = env.create_file("g").unwrap();
            append(&env, g, 1).unwrap();
            g
        };
        for installed in [None, Some(&other)] {
            let _s = installed.map(Txn::install);
            let r = append(&env, g, 2);
            assert!(
                matches!(&r, Err(StorageError::Immutable(n)) if n == "g"),
                "{r:?}"
            );
        }
        other.rollback().unwrap();
        owner.commit().unwrap();
        assert_eq!(env.page_count(g).unwrap(), 1);
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_env_keeps_untransacted_writes() {
        let env = Env::memory();
        let f = env.create_file("d").unwrap();
        assert_eq!(env.committed_files(), ["d"], "committed when created");
        let p = append(&env, f, 7).unwrap();
        assert_eq!(env.page(f, p).map(|d| d[0]).unwrap(), 7);
        env.remove_file(f).unwrap();
        assert!(!env.file_exists("d"));
        assert!(env.committed_files().is_empty());
    }

    #[test]
    fn pinned_files_outlive_a_committed_drop() {
        let dir = std::env::temp_dir().join(format!("saardb-env-pins-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        let build = |fill: u8| {
            env.autocommit(|| {
                let f = env.create_file("d")?;
                append(&env, f, fill)
            })
            .unwrap()
        };
        build(1);
        let pins = env.pin_files(&["d"]).unwrap();
        let old = pins.ids()[0];
        assert_eq!(env.page(old, PageId(0)).map(|d| d[0]).unwrap(), 1);
        // The drop commits at once: the name and the directory entry go,
        // the pinned reader keeps its pages.
        env.autocommit(|| env.remove_file(old)).unwrap();
        assert!(!env.file_exists("d"));
        assert!(!dir.join("d.sdb").exists());
        assert!(env.committed_files().is_empty());
        env.flush().unwrap();
        assert_eq!(env.page(old, PageId(0)).map(|d| d[0]).unwrap(), 1);
        // A reload under the same name is a new file beside the old one.
        build(2);
        let new = env.open_file("d").unwrap();
        assert_ne!(new, old);
        assert_eq!(env.page(new, PageId(0)).map(|d| d[0]).unwrap(), 2);
        assert_eq!(env.page(old, PageId(0)).map(|d| d[0]).unwrap(), 1);
        // The last pin frees the old file; the new one is untouched.
        drop(pins);
        assert!(matches!(
            env.page(old, PageId(0)).map(|d| d[0]),
            Err(StorageError::NoSuchFile(_))
        ));
        assert_eq!(env.page(new, PageId(0)).map(|d| d[0]).unwrap(), 2);
        assert_eq!(env.committed_files(), ["d"]);
        drop(env);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        let f = env.open_file("d").unwrap();
        assert_eq!(env.page(f, PageId(0)).map(|d| d[0]).unwrap(), 2);
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dropped_file_held_by_a_page_access_is_reaped_at_once() {
        let env = Env::memory();
        let f = env.create_file("d").unwrap();
        let p = append(&env, f, 3).unwrap();
        // The drop commits while a page access holds the file's page.
        let held = env.page(f, p).unwrap();
        env.remove_file(f).unwrap();
        assert!(env.committed_files().is_empty());
        assert!(matches!(env.page(f, p), Err(StorageError::NoSuchFile(_))));
        assert_eq!(held[0], 3);
    }

    /// Regression: a reader holds a page of a scratch file, and of a
    /// document file whose drop commits, while each file is removed. Both
    /// removals succeed at once and the reader still reads the same bytes.
    /// Removing a scratch file while a page access held one of its frames
    /// used to fail as busy.
    #[test]
    fn held_pages_outlive_the_removal_of_their_files() {
        let dir = std::env::temp_dir().join(format!("saardb-env-held-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        let doc = env
            .autocommit(|| {
                let f = env.create_file("d")?;
                Ok::<_, StorageError>((f, append(&env, f, 5)?))
            })
            .unwrap();
        let tmp = env.create_temp_file().unwrap();
        let tmp = (tmp, append(&env, tmp, 9).unwrap());
        let held = [doc, tmp].map(|(f, p)| env.page(f, p).unwrap());
        assert_eq!(env.pinned_frames(), 2);
        env.remove_file(tmp.0).unwrap();
        env.autocommit(|| env.remove_file(doc.0)).unwrap();
        assert!(env.committed_files().is_empty());
        assert!(env.temp_files().is_empty());
        assert!(!dir.join("d.sdb").exists());
        for (f, p) in [doc, tmp] {
            assert!(matches!(env.page(f, p), Err(StorageError::NoSuchFile(_))));
        }
        assert_eq!([held[0][0], held[1][0]], [5, 9]);
        drop(held);
        assert_eq!(env.pinned_frames(), 0);
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dropped_file_does_not_reopen_before_it_is_unlinked() {
        let dir = std::env::temp_dir().join(format!("saardb-env-unlink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        env.autocommit(|| {
            let f = env.create_file("d")?;
            append(&env, f, 0).map(|_| ())
        })
        .unwrap();
        let reader = env.pin_files(&["d"]).unwrap();
        let old = reader.ids()[0];
        // A drop's commit between its record and the unlink, where it
        // fsyncs the log: the file is out of the catalog but on disk.
        env.publish(&[], &[old]).unwrap();
        assert!(dir.join("d.sdb").exists());
        assert!(matches!(
            env.open_file("d"),
            Err(StorageError::NoSuchFile(_))
        ));
        assert!(env.pin_files(&["d"]).is_err());
        // The last reader leaves before the unlink.
        drop(reader);
        env.retire(&[old]);
        assert!(!dir.join("d.sdb").exists());
        env.autocommit(|| env.create_file("d").map(|_| ())).unwrap();
        assert_eq!(env.committed_files(), ["d"]);
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pins_are_all_or_none_and_respect_visibility() {
        let env = Env::memory();
        env.create_file("a").unwrap();
        assert!(matches!(
            env.pin_files(&["a", "b"]),
            Err(StorageError::NoSuchFile(n)) if n == "b"
        ));
        let txn = env.begin_txn();
        {
            let _s = txn.install();
            env.create_file("b").unwrap();
            assert_eq!(env.pin_files(&["a", "b"]).unwrap().ids().len(), 2);
        }
        assert!(env.pin_files(&["b"]).is_err(), "another transaction's file");
        txn.commit().unwrap();
        let pins = env.pin_files(&["a", "b"]).unwrap();
        env.remove_files(pins.ids()).unwrap();
        assert!(env.committed_files().is_empty());
        assert!(env.pin_files(&["a"]).is_err());
    }
}
