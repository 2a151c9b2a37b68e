//! The storage environment: a set of named paged files sharing one buffer
//! pool (the analogue of a Berkeley DB environment).
//!
//! Internally the environment splits into three cooperating components:
//! the **pager** (file table + buffer pool — everything about resolving a
//! `(FileId, PageId)` to bytes), the **transaction manager**
//! ([`crate::txn`] — locks, undo images, commit/rollback), and the
//! **write-ahead log** ([`crate::wal`] — durability and recovery). The
//! pager's file table is under a reader/writer lock: page accesses only
//! ever read it, so lookups never serialize behind file create/drop.
//! The file table is also the **catalog** every commit record carries
//! (see [`crate::wal`]).

use crate::backend::{Backend, FileBackend, MemBackend};
use crate::buffer::{BufferPool, IoSnapshot, IoStats, PoolIo};
use crate::error::StorageError;
use crate::fault::FaultState;
use crate::page::{PageId, DEFAULT_PAGE_SIZE};
use crate::txn::{self, Txn, TxnManager};
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

/// Prefix of anonymous scratch files: exempt from write-ahead logging and
/// removed by recovery.
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
    /// Scratch file: exempt from logging and locking, private to its query.
    Temp,
    /// Created, not committed: built unlogged; recovery deletes it. Owned
    /// by its creating transaction, or (`None`) committed by [`Env::flush`].
    New(Option<u64>),
    Committed,
}

pub(crate) struct FileEntry {
    backend: Arc<dyn Backend>,
    name: String,
    state: FileState,
}

struct FileTable {
    by_name: HashMap<String, FileId>,
    by_id: HashMap<FileId, FileEntry>,
    next: u32,
    /// Committed files not opened yet, with their page counts.
    unopened: HashMap<String, u64>,
}

impl FileTable {
    fn remove(&mut self, id: FileId) -> Option<FileEntry> {
        let entry = self.by_id.remove(&id)?;
        self.by_name.remove(&entry.name);
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
    /// Transaction bookkeeping: ids, lock table, page ownership.
    txns: TxnManager,
    /// Metrics registry every layer of this environment publishes into —
    /// pool/WAL/B+-tree counters here, engine latency histograms in core.
    registry: Arc<Registry>,
    /// Sampled on demand in [`Env::pinned_frames`].
    pinned_gauge: Arc<Gauge>,
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
    /// replayed: committed page images are redone, uncommitted steals are
    /// undone, and torn log tails are discarded — see [`crate::wal`]. The
    /// resulting [`RecoveryReport`] is available via
    /// [`Env::recovery_report`].
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
        env.checkpoint_log()?;
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
        let pinned_gauge = registry.gauge("saardb_pool_pinned_frames", &[]);
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
                pinned_gauge,
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

    /// Number of buffer-pool shards (lock-striping granularity).
    pub fn pool_shards(&self) -> usize {
        self.inner.pager.pool.shard_count()
    }

    /// True if the environment is backed by a directory on disk.
    pub fn is_on_disk(&self) -> bool {
        self.inner.dir.is_some()
    }

    /// True if `other` is a clone of this environment (same shared state).
    pub(crate) fn same_env(&self, other: &Env) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The transaction manager (lock table, ownership index, counters).
    pub(crate) fn txns(&self) -> &TxnManager {
        &self.inner.txns
    }

    /// The write-ahead log, if this environment has one.
    pub(crate) fn wal(&self) -> Option<&Wal> {
        self.inner.wal.as_ref()
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
    /// Order matters: the flush first makes the committed backlog durable
    /// in the data files (dirty pool pages, commit marker, fsync), and only
    /// then is the log checkpointed down to a single record — truncating
    /// first could discard committed updates still pool-resident. The
    /// server's watchdog calls this periodically, so recovery is automatic
    /// once space is reclaimed.
    pub fn try_exit_read_only(&self) -> Result<bool> {
        if !self.is_read_only() {
            return Ok(true);
        }
        if self.inner.txns.active_count() > 0 {
            return Ok(false);
        }
        self.flush()?;
        self.checkpoint_log()?;
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
            },
        );
        id
    }

    /// Creates a new file named `name`; errors if it already exists (in
    /// this environment or on disk). A durable file commits with the
    /// transaction installed on this thread, else with [`Env::flush`].
    pub fn create_file(&self, name: &str) -> Result<FileId> {
        let state = if name.starts_with(TEMP_PREFIX) {
            FileState::Temp
        } else {
            self.check_writable()?;
            FileState::New(txn::installed_id(self))
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
        let mut table = self.inner.pager.files.write();
        if let Some(&id) = table.by_name.get(name) {
            return Ok(id);
        }
        match self.disk_path(name) {
            Some(path) if path.exists() => {
                let backend: Arc<dyn Backend> =
                    Arc::new(FileBackend::open(&path, self.page_size())?);
                Ok(self.register(&mut table, name.to_string(), backend, FileState::Committed))
            }
            _ => Err(StorageError::NoSuchFile(name.to_string())),
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

    /// True if `name` exists in this environment or its directory.
    pub fn file_exists(&self, name: &str) -> bool {
        let table = self.inner.pager.files.read();
        if table.by_name.contains_key(name) {
            return true;
        }
        self.disk_path(name).is_some_and(|p| p.exists())
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

    /// Removes files: drops their pool frames, forgets them, deletes the
    /// disk files. Committed files leave the catalog with one logged
    /// `Delete` and one log fsync — or at the commit of the transaction
    /// installed on this thread. Fails with [`StorageError::FileBusy`]
    /// while any of the files' pages is pinned.
    pub fn remove_files(&self, ids: &[FileId]) -> Result<()> {
        let mut committed = Vec::new();
        for &id in ids {
            match self.file_meta(id) {
                Some((_, FileState::Committed)) => committed.push(id),
                Some(_) => self.discard(id)?,
                None => return Err(StorageError::NoSuchFile(format!("{id}"))),
            }
        }
        if committed.is_empty() || txn::defer_drops(self, &committed)? {
            return Ok(());
        }
        self.check_writable()?;
        self.drop_frames(&committed)?;
        let (record, removed) =
            self.publish(&[], &committed, |wal, _, gone| wal.append_delete(gone))?;
        let synced = record.map_or(Ok(false), |a| self.sync_wal(a.end));
        delete_files(&removed)?;
        synced.map(drop)
    }

    /// Forgets the files' pool frames (before `publish`, which must not
    /// wait on the pool under the file-table lock).
    pub(crate) fn drop_frames(&self, ids: &[FileId]) -> Result<()> {
        for &id in ids {
            self.inner.pager.pool.invalidate_file(id)?;
        }
        Ok(())
    }

    /// Removes an uncommitted or scratch file: nothing is logged, so this
    /// works even while the environment is read-only.
    pub(crate) fn discard(&self, id: FileId) -> Result<()> {
        self.inner.pager.pool.invalidate_file(id)?;
        let entry = self.inner.pager.files.write().remove(id);
        delete_files(&[entry.ok_or_else(|| StorageError::NoSuchFile(format!("{id}")))?])
    }

    /// One commit's catalog change: under the file-table lock (so records
    /// reach the log in catalog order), `record` appends the catalog with
    /// `added` in and `dropped` out, then the change is applied. Returns
    /// the record and the dropped entries, whose files the caller deletes.
    pub(crate) fn publish(
        &self,
        added: &[FileId],
        dropped: &[FileId],
        record: impl FnOnce(&Wal, Vec<(String, u64)>, Vec<String>) -> Result<Appended>,
    ) -> Result<(Option<Appended>, Vec<FileEntry>)> {
        let mut table = self.inner.pager.files.write();
        let mut appended = None;
        if let Some(wal) = &self.inner.wal {
            let file = |id: &FileId| {
                let e = table.by_id.get(id)?;
                Some((e.name.clone(), e.backend.page_count()))
            };
            let gone: Vec<String> = dropped.iter().filter_map(file).map(|(n, _)| n).collect();
            let mut files = table.catalog();
            files.retain(|(name, _)| !gone.contains(name));
            files.extend(added.iter().filter_map(file));
            let a = self.note_wal(record(wal, files, gone))?;
            let stats = self.inner.pager.pool.stats();
            stats.wal_appends.inc();
            stats.wal_bytes.add(a.bytes);
            appended = Some(a);
        }
        for id in added {
            if let Some(e) = table.by_id.get_mut(id) {
                e.state = FileState::Committed;
            }
        }
        let removed = dropped.iter().filter_map(|&id| table.remove(id)).collect();
        Ok((appended, removed))
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

    /// The uncommitted files `owner` created (`None`: untransacted ones).
    pub(crate) fn new_files(&self, owner: Option<u64>) -> Vec<FileId> {
        let table = self.inner.pager.files.read();
        let new = table
            .by_id
            .iter()
            .filter(|(_, e)| e.state == FileState::New(owner));
        new.map(|(&id, _)| id).collect()
    }

    /// Writes back new files' frames and fsyncs each file and the directory
    /// once, ahead of the record that commits them.
    pub(crate) fn make_durable(&self, files: &[FileId]) -> Result<()> {
        if files.is_empty() {
            return Ok(());
        }
        let pool = &self.inner.pager.pool;
        pool.flush(&EnvIo(self), &|f| files.contains(&f))?;
        for &file in files {
            self.backend(file)?.sync()?;
        }
        self.sync_dir(true);
        Ok(())
    }

    fn sync_dir(&self, created: bool) {
        if let (Some(dir), true) = (&self.inner.dir, created) {
            wal::sync_dir(dir);
        }
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

    /// Name and catalog state of an open file, if it is still open.
    pub(crate) fn file_meta(&self, id: FileId) -> Option<(String, FileState)> {
        let table = self.inner.pager.files.read();
        table.by_id.get(&id).map(|e| (e.name.clone(), e.state))
    }

    /// Appends a zeroed page to `file`.
    pub fn allocate_page(&self, file: FileId) -> Result<PageId> {
        if self.is_read_only() && !self.is_temp(file) {
            return Err(StorageError::ReadOnly);
        }
        let id = self.backend(file)?.allocate_page()?;
        Ok(id)
    }

    fn is_temp(&self, file: FileId) -> bool {
        matches!(self.file_meta(file), Some((_, FileState::Temp)))
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
    /// and commit protocol. Without an installed transaction every page
    /// access stays on the untransacted fast path (one thread-local probe,
    /// no locks) and [`Env::flush`] remains the durability point.
    pub fn begin_txn(&self) -> Txn {
        Txn::begin(self)
    }

    /// Number of live transactions on this environment.
    pub fn active_txns(&self) -> usize {
        self.inner.txns.active_count()
    }

    /// Runs `f` over the (read-only) contents of a page. Takes the frame's
    /// shared lock: concurrent readers of a hot page do not serialize.
    /// Under an installed transaction, first acquires (and holds, per
    /// strict two-phase locking) a shared page lock.
    pub fn with_page<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        txn::read_hook(self, file, page)?;
        self.inner
            .pager
            .pool
            .with_frame_read(file, page, &EnvIo(self), f)
    }

    /// Runs `f` over the mutable contents of a page, marking it dirty.
    /// Under an installed transaction, first acquires an exclusive page
    /// lock and captures the page's undo image.
    pub fn with_page_mut<R>(
        &self,
        file: FileId,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        // Cheap atomic probe first; the file-table lookup only runs while
        // degraded (scratch files stay writable — they are never logged).
        if self.is_read_only() && !self.is_temp(file) {
            return Err(StorageError::ReadOnly);
        }
        txn::write_hook(self, file, page)?;
        self.inner
            .pager
            .pool
            .with_frame_write(file, page, &EnvIo(self), f)
    }

    /// Copies a page's current (pool-resident) content. Bypasses the
    /// transaction hooks — used by the transaction layer itself, which
    /// already holds the page lock when it captures images.
    pub(crate) fn read_page_vec(&self, file: FileId, page: PageId) -> Result<Vec<u8>> {
        self.inner
            .pager
            .pool
            .with_frame_read(file, page, &EnvIo(self), |d| d.to_vec())
    }

    /// Overwrites a page with `data` (pool write, marks dirty). Bypasses
    /// the transaction hooks — rollback's pre-image restore.
    pub(crate) fn write_page_raw(&self, file: FileId, page: PageId, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size() {
            return Err(StorageError::PageBufferSize {
                len: data.len(),
                page_size: self.page_size(),
            });
        }
        self.inner
            .pager
            .pool
            .with_frame_write(file, page, &EnvIo(self), |d| d.copy_from_slice(data))
    }

    /// Writes back all dirty frames, syncs every file with unsynced writes,
    /// and — for WAL-backed environments — appends a commit marker: this
    /// is the durability point of untransacted work and files. Everything
    /// flushed here survives a crash; work done since the previous flush
    /// that only reached the data files via eviction steals is rolled back
    /// by recovery.
    ///
    /// Once the log outgrows [`WAL_CHECKPOINT_BYTES`] the commit also
    /// checkpoints (truncates) it — unless a transaction is in flight,
    /// whose undo records the truncation would discard; the next
    /// quiescent flush catches up.
    pub fn flush(&self) -> Result<()> {
        let _span = span("storage.flush");
        let created = self.new_files(None);
        self.inner.pager.pool.flush(&EnvIo(self), &|_| true)?;
        // Eviction steals were written unsynced; clean files skip the sync.
        let backends: Vec<Arc<dyn Backend>> = {
            let table = self.inner.pager.files.read();
            table
                .by_id
                .values()
                .map(|e| Arc::clone(&e.backend))
                .collect()
        };
        for backend in &backends {
            backend.sync()?;
        }
        self.sync_dir(!created.is_empty());
        let page_size = self.page_size();
        let (appended, _) = self.publish(&created, &[], |wal, files, _| {
            wal.append_commit(page_size, files)
        })?;
        if let (Some(a), Some(wal)) = (appended, &self.inner.wal) {
            self.sync_wal(a.end)?;
            if wal.len() > WAL_CHECKPOINT_BYTES && self.inner.txns.active_count() == 0 {
                let checkpointed = wal.len();
                self.checkpoint_log()?;
                self.inner
                    .registry
                    .counter("saardb_wal_checkpoint_bytes_total", &[])
                    .add(checkpointed);
            }
        }
        Ok(())
    }

    /// Flushes and then truncates the write-ahead log. The explicit form
    /// of the periodic checkpoint [`Env::flush`] applies by threshold; a
    /// no-op beyond [`Env::flush`] for in-memory environments. Skipped
    /// (flush still runs) while any transaction is in flight — truncation
    /// would discard its undo records.
    pub fn checkpoint(&self) -> Result<()> {
        self.flush()?;
        if self.inner.txns.active_count() == 0 {
            self.checkpoint_log()?;
        }
        Ok(())
    }

    /// Replaces the log with one checkpoint carrying the catalog, under
    /// the file-table lock like every commit record.
    fn checkpoint_log(&self) -> Result<()> {
        if let Some(wal) = &self.inner.wal {
            let table = self.inner.pager.files.write();
            self.note_wal(wal.checkpoint(self.page_size(), table.catalog()))?;
        }
        Ok(())
    }

    /// True if this environment write-ahead-logs page images (on-disk
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

    /// Number of buffer-pool frames currently pinned. Zero whenever no
    /// operation is in flight; the cancellation-torture sweep asserts this
    /// after every cancelled query.
    pub fn pinned_frames(&self) -> usize {
        let pinned = self.inner.pager.pool.pinned_frames();
        self.inner.pinned_gauge.set(pinned as i64);
        pinned
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

/// The pool's view of the environment: backend resolution plus the
/// WAL-before-steal hooks. The before-image of a logged page is its
/// current content in the data file, read here — reverse-order undo then
/// restores the committed image even when a page is stolen several times
/// between commits. Pages owned by an active transaction are logged as
/// transaction-tagged images instead, with the owner's first-touch
/// pre-image as the before-image, so recovery can undo a loser no matter
/// how many times its pages were stolen.
struct EnvIo<'a>(&'a Env);

impl PoolIo for EnvIo<'_> {
    fn backend(&self, file: FileId) -> Result<Arc<dyn Backend>> {
        self.0.backend(file)
    }

    fn wal_page_image(&self, file: FileId, page: PageId, after: &[u8]) -> Result<()> {
        let Some(wal) = &self.0.inner.wal else {
            return Ok(());
        };
        let Some((name, state)) = self.0.file_meta(file) else {
            return Err(StorageError::NoSuchFile(format!("{file}")));
        };
        if state == FileState::Temp {
            return Ok(()); // recovery deletes scratch files
        }
        let a = self
            .0
            .note_wal(match self.0.inner.txns.owner_pre_image(file, page) {
                Some((owner, pre)) => wal.append_txn_page_image(owner, &name, page, &pre, after),
                // New files are built, not logged: their commit fsyncs them.
                None if state != FileState::Committed => return Ok(()),
                None => {
                    let backend = self.0.backend(file)?;
                    let mut before = vec![0u8; after.len()];
                    backend.read_page(page, &mut before)?;
                    wal.append_page_image(&name, page, &before, after)
                }
            })?;
        let stats = self.0.inner.pager.pool.stats();
        stats.wal_appends.inc();
        stats.wal_bytes.add(a.bytes);
        Ok(())
    }

    fn wal_sync(&self) -> Result<()> {
        if let Some(wal) = &self.0.inner.wal {
            self.0.sync_wal(wal.len())?;
        }
        Ok(())
    }
}

pub(crate) fn delete_files(entries: &[FileEntry]) -> Result<()> {
    for path in entries.iter().filter_map(|e| e.backend.path()) {
        std::fs::remove_file(path)?;
    }
    Ok(())
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

    #[test]
    fn memory_env_basic_page_io() {
        let env = Env::memory();
        let f = env.create_file("nodes").unwrap();
        let p = env.allocate_page(f).unwrap();
        env.with_page_mut(f, p, |data| data[10] = 99).unwrap();
        let v = env.with_page(f, p, |data| data[10]).unwrap();
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
            let f = env.create_file("persist").unwrap();
            let p = env.allocate_page(f).unwrap();
            env.with_page_mut(f, p, |d| d[0] = 0x5A).unwrap();
            env.flush().unwrap();
        }
        {
            let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
            let f = env.open_file("persist").unwrap();
            let v = env.with_page(f, PageId(0), |d| d[0]).unwrap();
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
        let pages: Vec<_> = (0..32).map(|_| env.allocate_page(f).unwrap()).collect();
        for &p in &pages {
            env.with_page_mut(f, p, |d| d[0] = 1).unwrap();
        }
        let snap = env.io_stats();
        assert_eq!(snap.misses, 32);
        // 32 pages through 8 frames: at least 24 evictions of dirty pages.
        assert!(
            snap.physical_writes >= 24,
            "writes = {}",
            snap.physical_writes
        );
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
        let f = env.create_file("d").unwrap();
        let p = env.allocate_page(f).unwrap();
        env.with_page_mut(f, p, |d| d[0] = 1).unwrap();
        env.flush().unwrap();

        let faults = FaultState::new();
        env.inject_wal_faults(&faults);
        faults.set_wal_no_space(true);

        // A transactional commit fails typed and cleanly: rollback works,
        // the env latches read-only, no locks or frames stay pinned.
        let txn = env.begin_txn();
        {
            let _s = txn.install();
            env.with_page_mut(f, p, |d| d[0] = 2).unwrap();
        }
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, StorageError::NoSpace), "{err}");
        txn.rollback().unwrap();
        assert!(env.is_read_only());
        assert_eq!(env.pinned_frames(), 0);

        // Degraded mode: reads fine, durable writes typed-refused, scratch
        // files still usable (read-only queries must be able to spill).
        assert_eq!(env.with_page(f, p, |d| d[0]).unwrap(), 1);
        let err = env.with_page_mut(f, p, |d| d[0] = 3).unwrap_err();
        assert!(matches!(err, StorageError::ReadOnly), "{err}");
        assert!(matches!(
            env.create_file("new"),
            Err(StorageError::ReadOnly)
        ));
        let tmp = env.create_temp_file().unwrap();
        let tp = env.allocate_page(tmp).unwrap();
        env.with_page_mut(tmp, tp, |d| d[0] = 9).unwrap();
        env.remove_file(tmp).unwrap();

        // Still full: the probe fails and the latch stays.
        assert!(env.try_exit_read_only().is_err());
        assert!(env.is_read_only());

        // Space reclaimed: the probe flushes, checkpoints, and clears.
        faults.set_wal_no_space(false);
        assert!(env.try_exit_read_only().unwrap());
        assert!(!env.is_read_only());
        env.with_page_mut(f, p, |d| d[0] = 4).unwrap();
        env.flush().unwrap();
        assert_eq!(env.with_page(f, p, |d| d[0]).unwrap(), 4);

        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_skipped_while_txn_active() {
        let dir = std::env::temp_dir().join(format!("saardb-env-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
        let f = env.create_file("t").unwrap();
        let p = env.allocate_page(f).unwrap();
        let txn = env.begin_txn();
        {
            let _s = txn.install();
            env.with_page_mut(f, p, |d| d[0] = 1).unwrap();
        }
        env.checkpoint().unwrap();
        // The txn's steal/undo records (if any) plus the flush commit
        // marker must survive: no truncation with a live transaction.
        assert!(env.wal_bytes().unwrap() > 0);
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
}
