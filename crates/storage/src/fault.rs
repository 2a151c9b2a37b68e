//! Fault injection: a [`Backend`] decorator that simulates crashes, torn
//! page writes and transient I/O errors.
//!
//! The crash-torture harness (crates/testbed) arms a shared [`FaultState`]
//! with a *kill-point* — "crash after N page writes" — wraps every backend
//! of an environment in a [`FaultBackend`] sharing that state, and runs a
//! workload until the kill fires. From then on every operation on the
//! wrapped backends fails (the process is "dead"); the harness drops the
//! environment, reopens it without faults, and checks that WAL recovery
//! restored exactly the last committed state.
//!
//! The crash is a power cut, not just a process exit: like the OS page
//! cache, a wrapped file only keeps what its last *successful* sync made
//! durable. At the kill every page write and every extension that reached
//! the file after that sync is lost, so a skipped fsync shows up as lost
//! data in the sweeps. A sync counts as durable only when the wrapped
//! backend reports it actually flushed something ([`Backend::sync`]
//! returning `true`), which is what lets the sweeps catch a backend that
//! wrongly believes itself clean.

use crate::backend::Backend;
use crate::error::StorageError;
use crate::page::PageId;
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, Weak};

/// What happens at the kill-point's page write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KillMode {
    /// The write at the kill-point never reaches the file.
    #[default]
    BeforeWrite,
    /// The write at the kill-point is torn: only the first half of the
    /// page's new bytes land; the rest keeps its old content.
    TornWrite,
}

/// Shared fault plan. One state can be shared by every [`FaultBackend`] of
/// an environment, so the kill-point counts page writes globally.
#[derive(Debug, Default)]
pub struct FaultState {
    /// Page writes observed so far (successful or torn).
    writes: AtomicU64,
    /// Kill after this many page writes; `u64::MAX` = disarmed.
    kill_after: AtomicU64,
    kill_mode_torn: AtomicBool,
    /// Latched once the kill-point fires: all later operations fail.
    killed: AtomicBool,
    /// One-shot transient errors (no kill): the next write / sync fails.
    fail_next_write: AtomicBool,
    fail_next_sync: AtomicBool,
    /// While set, every WAL append/sync fails with
    /// [`StorageError::NoSpace`] — a level, not a one-shot, because a full
    /// volume stays full until space is reclaimed.
    wal_no_space: AtomicBool,
    /// Syncs of wrapped backends that flushed something.
    syncs: AtomicU64,
    /// Every backend sharing this plan, for the kill to revert.
    files: StdMutex<Vec<Weak<Volatile>>>,
}

impl FaultState {
    /// A disarmed fault plan (all operations pass through).
    pub fn new() -> Arc<FaultState> {
        Arc::new(FaultState {
            kill_after: AtomicU64::new(u64::MAX),
            ..FaultState::default()
        })
    }

    /// Arms the kill-point: the first `n` page writes succeed; the write
    /// after them triggers `mode` and latches the killed state.
    pub fn arm_kill(&self, n: u64, mode: KillMode) {
        self.writes.store(0, Ordering::SeqCst);
        self.killed.store(false, Ordering::SeqCst);
        self.kill_mode_torn
            .store(mode == KillMode::TornWrite, Ordering::SeqCst);
        self.kill_after.store(n, Ordering::SeqCst);
    }

    /// Clears every armed fault and the killed latch.
    pub fn disarm(&self) {
        self.kill_after.store(u64::MAX, Ordering::SeqCst);
        self.killed.store(false, Ordering::SeqCst);
        self.fail_next_write.store(false, Ordering::SeqCst);
        self.fail_next_sync.store(false, Ordering::SeqCst);
        self.wal_no_space.store(false, Ordering::SeqCst);
    }

    /// Kills the process now, between page writes (see the module docs).
    pub fn kill_now(&self) {
        if !self.killed.swap(true, Ordering::SeqCst) {
            self.lose_unsynced();
        }
    }

    /// Simulates a full volume under the write-ahead log: while set, every
    /// WAL append and sync fails with [`StorageError::NoSpace`], exactly as
    /// a real `ENOSPC` would. Clear with `set_wal_no_space(false)` (or
    /// [`FaultState::disarm`]) to model space being reclaimed.
    pub fn set_wal_no_space(&self, full: bool) {
        self.wal_no_space.store(full, Ordering::SeqCst);
    }

    /// True while the injected disk-full condition is active.
    pub fn wal_no_space(&self) -> bool {
        self.wal_no_space.load(Ordering::SeqCst)
    }

    /// Makes the next page write fail with an injected I/O error without
    /// killing the backend (a transient fault).
    pub fn fail_next_write(&self) {
        self.fail_next_write.store(true, Ordering::SeqCst);
    }

    /// Makes the next sync fail with an injected I/O error without killing
    /// the backend. Like a failed Linux `fsync`, which may mark the pages
    /// it could not write clean, it loses the file's unsynced writes.
    pub fn fail_next_sync(&self) {
        self.fail_next_sync.store(true, Ordering::SeqCst);
    }

    /// Page writes observed since the last [`FaultState::arm_kill`].
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Syncs of the wrapped backends that flushed something: the data-file
    /// fsyncs a workload paid for.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// True once the kill-point has fired.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    fn injected(op: &'static str) -> StorageError {
        StorageError::FaultInjected(op.to_string())
    }

    fn check_alive(&self, op: &'static str) -> Result<()> {
        if self.is_killed() {
            return Err(Self::injected(op));
        }
        Ok(())
    }

    /// Accounts one page write; decides whether it proceeds or fails.
    /// Returns `Ok(Some(torn))` when this write is the kill-point.
    fn on_write(&self) -> Result<Option<bool>> {
        self.check_alive("write_page after kill")?;
        if self.fail_next_write.swap(false, Ordering::SeqCst) {
            return Err(Self::injected("write_page (transient)"));
        }
        let n = self.writes.fetch_add(1, Ordering::SeqCst);
        if n >= self.kill_after.load(Ordering::SeqCst) {
            if self.killed.swap(true, Ordering::SeqCst) {
                return Err(Self::injected("write_page after kill"));
            }
            return Ok(Some(self.kill_mode_torn.load(Ordering::SeqCst)));
        }
        Ok(None)
    }

    fn lose_unsynced(&self) {
        let files = self.files.lock().expect("fault registry poisoned");
        let files: Vec<_> = files.iter().filter_map(Weak::upgrade).collect();
        for file in files {
            file.lose_unsynced();
        }
    }
}

/// One wrapped file and what to undo to get back to its last sync.
struct Volatile {
    inner: Arc<dyn Backend>,
    unsynced: Mutex<Unsynced>,
}

struct Unsynced {
    /// Page count at the last durable sync.
    durable_pages: u64,
    /// Durable content of each page overwritten since (first write only).
    durable: HashMap<u64, Vec<u8>>,
}

impl Volatile {
    /// Restores the last synced image (a store without a file keeps the
    /// pages appended since: it cannot shrink).
    fn lose_unsynced(&self) {
        self.revert(&mut self.unsynced.lock());
    }

    fn revert(&self, u: &mut Unsynced) {
        for (page, bytes) in u.durable.drain() {
            let _ = self.inner.write_page(PageId(page), &bytes);
        }
        let pages = self.inner.page_count();
        if let (Some(path), true) = (self.inner.path(), pages > u.durable_pages) {
            let _ = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| {
                    let page_size = f.metadata()?.len() / pages;
                    f.set_len(u.durable_pages * page_size)
                });
        }
    }
}

/// A [`Backend`] decorator that injects the faults of a shared
/// [`FaultState`]. Reads, writes, appends and sync all fail once the
/// state is killed; until then, writes and appends are counted toward the
/// kill-point and remembered until a sync makes them durable.
pub struct FaultBackend {
    file: Arc<Volatile>,
    state: Arc<FaultState>,
}

impl FaultBackend {
    /// Wraps `inner` (all durable so far), injecting the faults of `state`.
    pub fn new(inner: Arc<dyn Backend>, state: Arc<FaultState>) -> FaultBackend {
        let file = Arc::new(Volatile {
            unsynced: Mutex::new(Unsynced {
                durable_pages: inner.page_count(),
                durable: HashMap::new(),
            }),
            inner,
        });
        let mut files = state.files.lock().expect("fault registry poisoned");
        files.retain(|f| f.strong_count() > 0);
        files.push(Arc::downgrade(&file));
        drop(files);
        FaultBackend { file, state }
    }

    /// The shared fault state.
    pub fn state(&self) -> &Arc<FaultState> {
        &self.state
    }
}

impl Backend for FaultBackend {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.state.check_alive("read_page after kill")?;
        self.file.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let inner = &self.file.inner;
        let mut u = self.file.unsynced.lock();
        match self.state.on_write()? {
            None => {}
            Some(torn) => {
                // Everything unsynced is lost; a torn write then lands the
                // first half of its bytes on the durable page.
                drop(u);
                self.state.lose_unsynced();
                if torn && id.0 < self.file.unsynced.lock().durable_pages {
                    let mut spliced = vec![0u8; buf.len()];
                    inner.read_page(id, &mut spliced)?;
                    let half = buf.len() / 2;
                    spliced[..half].copy_from_slice(&buf[..half]);
                    inner.write_page(id, &spliced)?;
                    return Err(FaultState::injected("write_page torn at kill-point"));
                }
                return Err(FaultState::injected("write_page at kill-point"));
            }
        }
        if id.0 < u.durable_pages && !u.durable.contains_key(&id.0) {
            let mut before = vec![0u8; buf.len()];
            inner.read_page(id, &mut before)?;
            u.durable.insert(id.0, before);
        }
        inner.write_page(id, buf)
    }

    fn append_page(&self, buf: &[u8]) -> Result<PageId> {
        // An append is a data-page write like any other and counts toward
        // the kill-point; at the kill it never lands (a new page has no
        // durable image to tear).
        let _u = self.file.unsynced.lock();
        if self.state.on_write()?.is_some() {
            drop(_u);
            self.state.lose_unsynced();
            return Err(FaultState::injected("append_page at kill-point"));
        }
        self.file.inner.append_page(buf)
    }

    fn page_count(&self) -> u64 {
        self.file.inner.page_count()
    }

    fn sync(&self) -> Result<bool> {
        let mut u = self.file.unsynced.lock();
        self.state.check_alive("sync after kill")?;
        if self.state.fail_next_sync.swap(false, Ordering::SeqCst) {
            self.file.revert(&mut u);
            return Err(FaultState::injected("sync (transient)"));
        }
        let flushed = self.file.inner.sync()?;
        if flushed {
            u.durable_pages = self.file.inner.page_count();
            u.durable.clear();
            self.state.syncs.fetch_add(1, Ordering::SeqCst);
        }
        Ok(flushed)
    }

    fn path(&self) -> Option<&Path> {
        self.file.inner.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    const PS: usize = 128;

    fn setup() -> (FaultBackend, Arc<FaultState>) {
        let state = FaultState::new();
        let inner: Arc<dyn Backend> = Arc::new(MemBackend::new(PS));
        (FaultBackend::new(inner, Arc::clone(&state)), state)
    }

    #[test]
    fn disarmed_passes_through() {
        let (b, state) = setup();
        let p = b.append_page(&[7u8; PS]).unwrap();
        b.write_page(p, &[8u8; PS]).unwrap();
        let mut buf = vec![0u8; PS];
        b.read_page(p, &mut buf).unwrap();
        assert_eq!(buf[0], 8);
        assert_eq!(state.writes(), 2, "an append counts as a write");
        b.sync().unwrap();
    }

    #[test]
    fn kill_point_latches_all_operations() {
        let (b, state) = setup();
        let p0 = b.append_page(&[0u8; PS]).unwrap();
        let p1 = b.append_page(&[0u8; PS]).unwrap();
        state.arm_kill(1, KillMode::BeforeWrite);
        b.write_page(p0, &[1u8; PS]).unwrap();
        let err = b.write_page(p1, &[2u8; PS]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        assert!(state.is_killed());
        // Dead: everything fails, and the killed write never landed.
        let mut buf = vec![0u8; PS];
        assert!(b.read_page(p1, &mut buf).is_err());
        assert!(b.sync().is_err());
        assert!(b.append_page(&[0u8; PS]).is_err());
        state.disarm();
        b.read_page(p1, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "killed write must not land");
    }

    #[test]
    fn an_append_at_the_kill_point_never_lands() {
        let (b, state) = setup();
        b.append_page(&[1u8; PS]).unwrap();
        state.arm_kill(0, KillMode::TornWrite);
        assert!(b.append_page(&[2u8; PS]).is_err());
        assert!(state.is_killed());
        state.disarm();
        assert_eq!(b.page_count(), 1);
    }

    #[test]
    fn torn_write_leaves_half_a_page() {
        let (b, state) = setup();
        let p = b.append_page(&[0u8; PS]).unwrap();
        b.write_page(p, &[0xAAu8; PS]).unwrap();
        b.sync().unwrap();
        state.arm_kill(0, KillMode::TornWrite);
        let err = b.write_page(p, &[0xBBu8; PS]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        state.disarm();
        let mut buf = vec![0u8; PS];
        b.read_page(p, &mut buf).unwrap();
        assert!(buf[..PS / 2].iter().all(|&x| x == 0xBB));
        assert!(buf[PS / 2..].iter().all(|&x| x == 0xAA));
    }

    #[test]
    fn transient_faults_are_one_shot() {
        let (b, state) = setup();
        let p = b.append_page(&[0u8; PS]).unwrap();
        state.fail_next_write();
        assert!(b.write_page(p, &[1u8; PS]).is_err());
        b.write_page(p, &[1u8; PS]).unwrap();
        state.fail_next_sync();
        assert!(b.sync().is_err());
        b.sync().unwrap();
        assert!(!state.is_killed(), "transient faults do not kill");
    }

    #[test]
    fn failed_sync_loses_the_unsynced_writes() {
        let (b, state) = setup();
        let p = b.append_page(&[0u8; PS]).unwrap();
        b.write_page(p, &[1u8; PS]).unwrap();
        b.sync().unwrap();
        b.write_page(p, &[2u8; PS]).unwrap();
        state.fail_next_sync();
        assert!(b.sync().is_err());
        let mut buf = vec![0u8; PS];
        b.read_page(p, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 1),
            "the failed sync dropped the write"
        );
        assert!(!state.is_killed());
    }

    #[test]
    fn kill_loses_every_unsynced_write_and_extension() {
        let path = std::env::temp_dir().join(format!("saardb-fault-{}.sdb", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file: Arc<dyn Backend> =
            Arc::new(crate::backend::FileBackend::open(&path, PS).unwrap());
        let state = FaultState::new();
        let b = FaultBackend::new(file, Arc::clone(&state));
        let p0 = b.append_page(&[0u8; PS]).unwrap();
        b.write_page(p0, &[1u8; PS]).unwrap();
        b.sync().unwrap();
        b.write_page(p0, &[2u8; PS]).unwrap();
        let p1 = b.append_page(&[0u8; PS]).unwrap();
        b.write_page(p1, &[3u8; PS]).unwrap();
        state.kill_now();
        assert!(b.write_page(p0, &[4u8; PS]).is_err(), "dead after the kill");
        state.disarm();
        let mut buf = vec![0u8; PS];
        b.read_page(p0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 1), "the synced image survives");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            PS as u64,
            "{p1:?} is lost"
        );
        assert_eq!(state.syncs(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
