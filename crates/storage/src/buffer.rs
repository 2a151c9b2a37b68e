//! The buffer pool: a fixed set of page frames shared by every file of an
//! environment, with clock (second-chance) eviction and pin counting. It is
//! a read cache: pages are written once, straight to their backend, before
//! anyone reads them (see [`crate::PageAppender`]), so no frame is ever
//! dirty and eviction just forgets the victim.
//!
//! The pool's byte budget is the knob that models the paper's efficiency
//! tests ("we allowed only 20 MB of memory"): a query whose working set
//! exceeds the budget pays physical I/O, which is exactly what the cost
//! model must predict.
//!
//! ## Sharding
//!
//! The pool is split into up to [`MAX_SHARDS`] shards, each with its own
//! frame set, its own `Mutex<PoolState>` (frame table + pin counts) and its
//! own clock hand. A page's shard is fixed by `hash(file, page)`, so
//! concurrent engines — the testbed runs queries on worker threads against
//! clones of one environment — only contend when they touch pages that
//! land in the same shard, instead of serializing every access on one
//! global lock. Each shard keeps at least [`MIN_SHARD_FRAMES`] frames so
//! nested page accesses (a scan's leaf pinned while its overflow chain is
//! read) can always pin their working set no matter how the pages hash.

use crate::backend::Backend;
use crate::env::FileId;
use crate::error::StorageError;
use crate::page::PageId;
use crate::Result;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use xmldb_obs::{Counter, Registry};

/// Upper bound on the number of pool shards.
pub const MAX_SHARDS: usize = 16;

/// Minimum frames per shard (the old whole-pool floor, now per shard, so a
/// worst-case hash distribution still leaves room for nested pins).
pub const MIN_SHARD_FRAMES: usize = 8;

/// One shard's traffic counters, registered in the environment's metrics
/// registry under a `shard="<i>"` label. The shard increments its own
/// counters on the fetch path (no cross-shard contention beyond what the
/// seed had); [`IoStats::snapshot`] aggregates across shards.
#[derive(Clone)]
pub(crate) struct ShardStats {
    pub(crate) hits: Arc<Counter>,
    pub(crate) misses: Arc<Counter>,
    pub(crate) evictions: Arc<Counter>,
    pub(crate) physical_reads: Arc<Counter>,
}

impl ShardStats {
    fn new(registry: &Registry, shard: usize) -> ShardStats {
        let s = shard.to_string();
        let labels: [(&str, &str); 1] = [("shard", &s)];
        ShardStats {
            hits: registry.counter("saardb_pool_hits_total", &labels),
            misses: registry.counter("saardb_pool_misses_total", &labels),
            evictions: registry.counter("saardb_pool_evictions_total", &labels),
            physical_reads: registry.counter("saardb_pool_physical_reads_total", &labels),
        }
    }

    fn counters(&self) -> [&Counter; 4] {
        [
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.physical_reads,
        ]
    }
}

/// Counters describing pool and backend traffic since the last reset.
/// All counters are registry-backed: the same cells feed EXPLAIN ANALYZE
/// deltas, `saardb stats` and the testbed's efficiency reports — one
/// telemetry path. Per-shard counters (hits/misses/evictions/physical
/// reads) live on the shards; this struct holds the pool- and WAL-level
/// ones plus handles for aggregation.
pub struct IoStats {
    shards: Vec<ShardStats>,
    /// Pages written to a backend (appends and the builders' positional
    /// patches; see [`crate::PageAppender`]).
    pub physical_writes: Arc<Counter>,
    /// Zero-copy B+-tree node views constructed over pinned frame bytes
    /// (read path only — one per page visited without materialization).
    pub node_views: Arc<Counter>,
    /// Binary searches executed in place against pinned frame bytes
    /// (internal-node descent steps and leaf probes).
    pub in_place_searches: Arc<Counter>,
    /// Shard-lock acquisitions on the page-fetch path (one per pin).
    pub shard_locks: Arc<Counter>,
    /// WAL records appended (commits and checkpoints).
    pub wal_appends: Arc<Counter>,
    /// Bytes appended to the WAL.
    pub wal_bytes: Arc<Counter>,
    /// WAL fsyncs issued (one per group-commit leader).
    pub wal_syncs: Arc<Counter>,
    /// Snapshot cuts that never stabilized: [`IoStats::snapshot`] gave up
    /// after its bounded retries and returned the last read. Non-zero is
    /// not an error — it means concurrent committers kept the counters
    /// moving for every retry — but a growing value says snapshots taken
    /// under load are best-effort cuts, not exact ones.
    pub snapshot_unstable: Arc<Counter>,
}

/// A point-in-time copy of [`IoStats`], aggregated across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Pool hits.
    pub hits: u64,
    /// Pool misses (physical reads required).
    pub misses: u64,
    /// Frames whose previous occupant was displaced to load a new page.
    pub evictions: u64,
    /// Physical page reads.
    pub physical_reads: u64,
    /// Physical page writes.
    pub physical_writes: u64,
    /// Zero-copy node views constructed.
    pub node_views: u64,
    /// In-place binary searches over pinned frames.
    pub in_place_searches: u64,
    /// Shard-lock acquisitions on the fetch path.
    pub shard_locks: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// WAL fsyncs issued.
    pub wal_syncs: u64,
}

/// Upper bound on double-read retries in [`stable_cut`]. Without a cap
/// the loop could spin unboundedly once concurrent committers keep the
/// counters moving on every pass (16 threads in a commit storm do exactly
/// that); with it, the cut degrades to best-effort and the caller counts
/// the give-up.
const STABLE_CUT_RETRIES: usize = 8;

/// Reads a value group until two consecutive passes agree — the "single
/// consistent cut" a snapshot needs. Returns the values and whether they
/// stabilized; after [`STABLE_CUT_RETRIES`] moving passes the last read
/// is returned with `false`.
fn stable_cut<const N: usize>(mut read: impl FnMut() -> [u64; N]) -> ([u64; N], bool) {
    let mut prev = read();
    for _ in 0..STABLE_CUT_RETRIES {
        let cur = read();
        if cur == prev {
            return (cur, true);
        }
        prev = cur;
    }
    (prev, false)
}

/// [`stable_cut`] over registry counters. The counters are monotonic
/// between resets, so pass `n` equalling pass `n+1` proves no increment
/// landed between the two passes and the group is internally consistent
/// (a field-by-field read could pair a post-query `misses` with a
/// pre-query `physical_reads` torn by a concurrent engine). A cut that
/// never stabilizes bumps `unstable` and falls back to the last read.
fn read_stable<const N: usize>(counters: [&Counter; N], unstable: &Counter) -> [u64; N] {
    let (vals, stable) = stable_cut(|| counters.map(Counter::get));
    if !stable {
        unstable.inc();
    }
    vals
}

impl IoStats {
    /// Creates the counter set in `registry`, one shard group per pool
    /// shard.
    pub(crate) fn new(registry: &Registry, nshards: usize) -> IoStats {
        registry.help(
            "saardb_pool_hits_total",
            "Page requests satisfied from the buffer pool.",
        );
        registry.help(
            "saardb_pool_misses_total",
            "Page requests that required a physical read.",
        );
        registry.help(
            "saardb_pool_evictions_total",
            "Pool frames whose occupant was displaced for a new page.",
        );
        registry.help(
            "saardb_btree_node_views_total",
            "Zero-copy B+-tree node views over pinned frames.",
        );
        registry.help(
            "saardb_wal_appends_total",
            "WAL records appended (commits and checkpoints).",
        );
        registry.help(
            "saardb_snapshot_unstable_total",
            "I/O-counter snapshots that fell back to a best-effort cut.",
        );
        IoStats {
            shards: (0..nshards.max(1))
                .map(|i| ShardStats::new(registry, i))
                .collect(),
            physical_writes: registry.counter("saardb_pool_physical_writes_total", &[]),
            node_views: registry.counter("saardb_btree_node_views_total", &[]),
            in_place_searches: registry.counter("saardb_btree_in_place_searches_total", &[]),
            shard_locks: registry.counter("saardb_pool_shard_locks_total", &[]),
            wal_appends: registry.counter("saardb_wal_appends_total", &[]),
            wal_bytes: registry.counter("saardb_wal_bytes_total", &[]),
            wal_syncs: registry.counter("saardb_wal_syncs_total", &[]),
            snapshot_unstable: registry.counter("saardb_snapshot_unstable_total", &[]),
        }
    }

    /// Takes a consistent snapshot: one stable read pass per counter
    /// group (each shard, the write and read-path group, the WAL group) instead of
    /// field-by-field reads that can tear against concurrent queries.
    pub fn snapshot(&self) -> IoSnapshot {
        let unstable = &*self.snapshot_unstable;
        let mut snap = IoSnapshot::default();
        for shard in &self.shards {
            let [hits, misses, evictions, reads] = read_stable(shard.counters(), unstable);
            snap.hits += hits;
            snap.misses += misses;
            snap.evictions += evictions;
            snap.physical_reads += reads;
        }
        let [physical_writes, node_views, in_place_searches, shard_locks] = read_stable(
            [
                &*self.physical_writes,
                &*self.node_views,
                &*self.in_place_searches,
                &*self.shard_locks,
            ],
            unstable,
        );
        snap.physical_writes = physical_writes;
        snap.node_views = node_views;
        snap.in_place_searches = in_place_searches;
        snap.shard_locks = shard_locks;
        let [wal_appends, wal_bytes, wal_syncs] = read_stable(
            [&*self.wal_appends, &*self.wal_bytes, &*self.wal_syncs],
            unstable,
        );
        snap.wal_appends = wal_appends;
        snap.wal_bytes = wal_bytes;
        snap.wal_syncs = wal_syncs;
        snap
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        for shard in &self.shards {
            for c in shard.counters() {
                c.reset();
            }
        }
        for c in [
            &self.physical_writes,
            &self.node_views,
            &self.in_place_searches,
            &self.shard_locks,
            &self.wal_appends,
            &self.wal_bytes,
            &self.wal_syncs,
            &self.snapshot_unstable,
        ] {
            c.reset();
        }
    }

    pub(crate) fn note_node_view(&self) {
        self.node_views.inc();
    }

    pub(crate) fn note_in_place_search(&self) {
        self.in_place_searches.inc();
    }
}

impl std::fmt::Debug for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl IoSnapshot {
    /// Total logical page requests.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 1.0 when there were no requests.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference `self − earlier`, saturating at zero — the
    /// per-query I/O attribution used by EXPLAIN ANALYZE (snapshot before,
    /// snapshot after, delta). Saturation matters when another handle
    /// resets the shared counters between the two snapshots.
    pub fn delta(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            node_views: self.node_views.saturating_sub(earlier.node_views),
            in_place_searches: self
                .in_place_searches
                .saturating_sub(earlier.in_place_searches),
            shard_locks: self.shard_locks.saturating_sub(earlier.shard_locks),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
        }
    }
}

#[derive(Debug)]
struct FrameMeta {
    tag: Option<(FileId, PageId)>,
    pin: u32,
    refbit: bool,
}

struct PoolState {
    metas: Vec<FrameMeta>,
    table: HashMap<(FileId, PageId), usize>,
    clock: usize,
}

/// One pool shard: a private frame set behind a private lock with its own
/// clock hand.
struct Shard {
    state: Mutex<PoolState>,
    /// Frame contents. Indexed in lockstep with `PoolState::metas`.
    data: Vec<RwLock<Box<[u8]>>>,
    /// This shard's registry-backed traffic counters.
    stats: ShardStats,
}

/// How the pool finds a file's backend on a miss: the
/// environment's file table, or a plain closure in tests and scratch pools.
pub(crate) type Resolver<'a> = &'a dyn Fn(FileId) -> Result<Arc<dyn Backend>>;

/// The buffer pool. See module docs.
pub struct BufferPool {
    shards: Vec<Shard>,
    page_size: usize,
    stats: IoStats,
}

/// Number of shards for a pool of `capacity` frames: the largest power of
/// two that still leaves [`MIN_SHARD_FRAMES`] frames per shard, capped at
/// [`MAX_SHARDS`].
fn shard_count(capacity: usize) -> usize {
    let mut n = 1;
    while n * 2 * MIN_SHARD_FRAMES <= capacity && n * 2 <= MAX_SHARDS {
        n *= 2;
    }
    n
}

impl BufferPool {
    /// Creates a pool of `capacity` frames of `page_size` bytes, split into
    /// shards (see module docs). Capacity is clamped to at least
    /// [`MIN_SHARD_FRAMES`] frames. Counters land in a private registry;
    /// environments that expose metrics use [`BufferPool::with_registry`].
    pub fn new(capacity: usize, page_size: usize) -> BufferPool {
        BufferPool::with_registry(capacity, page_size, &Registry::new())
    }

    /// Creates a pool whose counters are registered in `registry` (the
    /// counter cells stay alive through the pool's `Arc` handles even if
    /// the registry is dropped first).
    pub fn with_registry(capacity: usize, page_size: usize, registry: &Registry) -> BufferPool {
        let capacity = capacity.max(MIN_SHARD_FRAMES);
        let nshards = shard_count(capacity);
        let stats = IoStats::new(registry, nshards);
        let shards = (0..nshards)
            .map(|i| {
                // Distribute frames as evenly as possible; the remainder
                // goes to the first shards.
                let frames = capacity / nshards + usize::from(i < capacity % nshards);
                Shard {
                    state: Mutex::new(PoolState {
                        metas: (0..frames)
                            .map(|_| FrameMeta {
                                tag: None,
                                pin: 0,
                                refbit: false,
                            })
                            .collect(),
                        table: HashMap::new(),
                        clock: 0,
                    }),
                    data: (0..frames)
                        .map(|_| RwLock::new(vec![0u8; page_size].into_boxed_slice()))
                        .collect(),
                    stats: stats.shards[i].clone(),
                }
            })
            .collect();
        BufferPool {
            shards,
            page_size,
            stats,
        }
    }

    /// Number of frames across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.data.len()).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Traffic counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The shard holding `(file, page)`. Fibonacci multiplicative hash over
    /// the page id with the file id folded in; shard counts are powers of
    /// two, so the top bits mask cleanly.
    fn shard_of(&self, file: FileId, page: PageId) -> usize {
        let n = self.shards.len();
        if n == 1 {
            return 0;
        }
        let h = (page.0 ^ ((file.0 as u64) << 40)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) & (n - 1)
    }

    /// Runs `f` on the read-only contents of `(file, page)`, faulting it in
    /// if necessary. Takes the frame's *read* lock, so concurrent readers
    /// of the same hot page (e.g. an index root) proceed in parallel; only
    /// a miss loading the frame takes it exclusively, and eviction cannot
    /// touch the frame while the pin is held.
    pub(crate) fn with_frame_read<R>(
        &self,
        file: FileId,
        page: PageId,
        io: Resolver<'_>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let pin = PinGuard::new(self, self.acquire(file, page, io)?);
        let result = {
            let guard = self.shards[pin.shard].data[pin.idx].read();
            f(&guard)
        };
        Ok(result)
    }

    /// Pins the frame holding `(file, page)`, loading it on a miss. Returns
    /// `(shard, frame)` with `pin` already incremented.
    fn acquire(&self, file: FileId, page: PageId, io: Resolver<'_>) -> Result<(usize, usize)> {
        // Page acquires are the structural choke point every
        // storage-touching engine passes through: check the thread's
        // installed governor here so cancellation and deadlines reach even
        // code that never sees an `ExecContext` (B+-tree descents, the
        // XASR axis cursors, recovery replays nothing — it runs before any
        // governor is installed).
        crate::governor::Governor::check_current()?;
        let shard_idx = self.shard_of(file, page);
        let shard = &self.shards[shard_idx];
        self.stats.shard_locks.inc();
        let mut state = shard.state.lock();
        if let Some(&idx) = state.table.get(&(file, page)) {
            let meta = &mut state.metas[idx];
            meta.pin += 1;
            meta.refbit = true;
            shard.stats.hits.inc();
            return Ok((shard_idx, idx));
        }
        shard.stats.misses.inc();
        let idx = find_victim(&mut state)?;
        if let Some(old) = state.metas[idx].tag.take() {
            state.table.remove(&old);
            shard.stats.evictions.inc();
        }

        // Claim the frame and load under the shard lock: holding the lock
        // keeps this shard's table exact, and only this shard is blocked.
        {
            let backend = io(file)?;
            let mut data = shard.data[idx].write();
            backend.read_page(page, &mut data)?;
            shard.stats.physical_reads.inc();
        }
        state.table.insert((file, page), idx);
        let meta = &mut state.metas[idx];
        meta.tag = Some((file, page));
        meta.pin = 1;
        meta.refbit = true;
        Ok((shard_idx, idx))
    }

    fn release(&self, shard: usize, idx: usize) {
        let mut state = self.shards[shard].state.lock();
        let meta = &mut state.metas[idx];
        debug_assert!(meta.pin > 0, "release of unpinned frame");
        meta.pin -= 1;
    }

    /// Drops every frame belonging to `file` (the file is being removed). Refuses with [`StorageError::FileBusy`] if any of
    /// the file's frames is still pinned — silently unmapping a page
    /// another operator holds would hand it a frame whose identity can
    /// change under it. All shard locks are held together so the
    /// pinned-check and the unmapping are one atomic step.
    pub(crate) fn invalidate_file(&self, file: FileId) -> Result<()> {
        // Lock shards in index order (the only place multiple shard locks
        // are held at once, so lock ordering is trivially consistent).
        let mut states: Vec<_> = self.shards.iter().map(|s| s.state.lock()).collect();
        let pinned = states
            .iter()
            .flat_map(|state| state.metas.iter())
            .filter(|m| matches!(m.tag, Some((f, _)) if f == file) && m.pin > 0)
            .count();
        if pinned > 0 {
            return Err(StorageError::FileBusy {
                file: format!("{file}"),
                pinned,
            });
        }
        for state in &mut states {
            for idx in 0..state.metas.len() {
                if matches!(state.metas[idx].tag, Some((f, _)) if f == file) {
                    if let Some(tag) = state.metas[idx].tag.take() {
                        state.table.remove(&tag);
                    }
                    state.metas[idx].refbit = false;
                }
            }
        }
        Ok(())
    }

    /// Page size of frames in this pool.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of frames with a non-zero pin count across all shards.
    /// Zero whenever no operation is in flight — the cancellation-torture
    /// sweep asserts this after every cancelled query to prove no pin
    /// leaked on the unwind path.
    pub fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().metas.iter().filter(|m| m.pin > 0).count())
            .sum()
    }
}

/// Unpins a frame on drop, so `with_frame_read` releases its pin even
/// when the caller's closure panics (a crashing engine must
/// not leave the pool with stuck pins — `catch_unwind` in the testbed
/// relies on this to keep the pool usable after a `Crashed` submission).
struct PinGuard<'a> {
    pool: &'a BufferPool,
    shard: usize,
    idx: usize,
}

impl<'a> PinGuard<'a> {
    fn new(pool: &'a BufferPool, (shard, idx): (usize, usize)) -> PinGuard<'a> {
        PinGuard { pool, shard, idx }
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.pool.release(self.shard, self.idx);
    }
}

/// Clock (second-chance) victim selection among one shard's unpinned
/// frames.
fn find_victim(state: &mut PoolState) -> Result<usize> {
    let n = state.metas.len();
    // Two sweeps: the first clears reference bits, the second takes the
    // first unpinned frame.
    for _ in 0..2 * n {
        let idx = state.clock;
        state.clock = (state.clock + 1) % n;
        let meta = &mut state.metas[idx];
        if meta.pin > 0 {
            continue;
        }
        if meta.tag.is_none() {
            return Ok(idx);
        }
        if meta.refbit {
            meta.refbit = false;
        } else {
            return Ok(idx);
        }
    }
    Err(StorageError::PoolExhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    const PS: usize = 256;

    fn setup(pool_frames: usize) -> (BufferPool, Arc<dyn Backend>) {
        let pool = BufferPool::new(pool_frames, PS);
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new(PS));
        (pool, backend)
    }

    fn resolver(backend: &Arc<dyn Backend>) -> impl Fn(FileId) -> Result<Arc<dyn Backend>> + '_ {
        move |_| Ok(Arc::clone(backend))
    }

    /// Appends a page whose first byte is `first`.
    fn append(backend: &Arc<dyn Backend>, first: u8) -> PageId {
        let mut page = vec![0u8; PS];
        page[0] = first;
        backend.append_page(&page).unwrap()
    }

    #[test]
    fn read_after_write_roundtrips() {
        let (pool, backend) = setup(8);
        let r = resolver(&backend);
        let f = FileId(0);
        let p = append(&backend, 42);
        for _ in 0..2 {
            assert_eq!(pool.with_frame_read(f, p, &r, |data| data[0]).unwrap(), 42);
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.shard_locks, 2, "one shard-lock acquisition per pin");
    }

    /// Eviction forgets a frame; the next fetch of its page reloads it.
    #[test]
    fn eviction_reloads_pages_from_the_backend() {
        let (pool, backend) = setup(8); // clamped min is 8
        let r = resolver(&backend);
        let f = FileId(0);
        let pages: Vec<PageId> = (0..20).map(|i| append(&backend, i)).collect();
        for _ in 0..2 {
            for (i, &p) in pages.iter().enumerate() {
                let v = pool.with_frame_read(f, p, &r, |data| data[0]).unwrap();
                assert_eq!(v, i as u8, "page {p}");
            }
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.misses, 40, "20 pages cycled through 8 frames");
        assert_eq!(snap.evictions, 32);
        assert_eq!(snap.physical_writes, 0, "eviction writes nothing");
    }

    #[test]
    fn hit_ratio_accounting() {
        let (pool, backend) = setup(8);
        let r = resolver(&backend);
        let f = FileId(0);
        let p = append(&backend, 0);
        for _ in 0..9 {
            pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, 8);
        assert!((snap.hit_ratio() - 8.0 / 9.0).abs() < 1e-9);
        pool.stats().reset();
        assert_eq!(pool.stats().snapshot(), IoSnapshot::default());
    }

    #[test]
    fn invalidate_file_forgets_frames() {
        let (pool, backend) = setup(8);
        let r = resolver(&backend);
        let f = FileId(3);
        let p = append(&backend, 9);
        pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        pool.invalidate_file(f).unwrap();
        // The refetch misses and reads the page from the backend again.
        let v = pool.with_frame_read(f, p, &r, |d| d[0]).unwrap();
        assert_eq!(v, 9);
        assert_eq!(pool.stats().snapshot().misses, 2);
    }

    #[test]
    fn capacity_clamped_to_minimum() {
        let pool = BufferPool::new(1, PS);
        assert_eq!(pool.capacity(), 8);
        assert_eq!(pool.shard_count(), 1);
    }

    #[test]
    fn sharding_scales_with_capacity() {
        // 8 frames per shard minimum: 64 frames → 8 shards, 512 → capped
        // at MAX_SHARDS; capacity is preserved exactly in every case.
        for (frames, shards) in [(8, 1), (15, 1), (16, 2), (64, 8), (512, 16), (513, 16)] {
            let pool = BufferPool::new(frames, PS);
            assert_eq!(pool.capacity(), frames, "{frames} frames");
            assert_eq!(pool.shard_count(), shards, "{frames} frames");
        }
    }

    #[test]
    fn pages_spread_across_shards() {
        let (pool, backend) = setup(128); // 16 shards of 8
        assert_eq!(pool.shard_count(), 16);
        let r = resolver(&backend);
        let f = FileId(0);
        // 64 distinct pages must not all land in one 8-frame shard; with
        // everything resident, re-reads are all hits.
        let pages: Vec<PageId> = (0..64).map(|i| append(&backend, i)).collect();
        for _ in 0..2 {
            for &p in &pages {
                let v = pool.with_frame_read(f, p, &r, |d| d[0]).unwrap();
                assert_eq!(v, (p.0 & 0xFF) as u8);
            }
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.evictions, 0, "64 pages fit a 128-frame pool");
        assert_eq!(snap.hits, 64);
    }

    #[test]
    fn invalidate_file_refuses_pinned_frames() {
        let (pool, backend) = setup(8);
        let r = resolver(&backend);
        let f = FileId(5);
        let p = append(&backend, 0);
        let (shard, idx) = pool.acquire(f, p, &r).unwrap();
        let err = pool.invalidate_file(f).unwrap_err();
        assert!(
            matches!(err, StorageError::FileBusy { pinned: 1, .. }),
            "unexpected error: {err}"
        );
        pool.release(shard, idx);
        pool.invalidate_file(f).unwrap();
        // Frame was unmapped: the next fetch is a miss.
        pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        assert_eq!(pool.stats().snapshot().misses, 2);
    }

    #[test]
    fn panicking_closure_releases_its_pin() {
        let (pool, backend) = setup(8);
        let r = resolver(&backend);
        let f = FileId(0);
        let p = append(&backend, 1);
        pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        assert_eq!(pool.pinned_frames(), 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_frame_read(f, p, &r, |_| panic!("engine bug"))
        }));
        assert!(result.is_err());
        // The pin was released during unwinding: the file can still be
        // invalidated and the pool reports no stuck pins.
        assert_eq!(pool.pinned_frames(), 0);
        pool.invalidate_file(f).unwrap();
    }

    #[test]
    fn acquire_honors_installed_governor() {
        use crate::governor::Governor;
        let (pool, backend) = setup(8);
        let r = resolver(&backend);
        let f = FileId(0);
        let p = append(&backend, 0);
        let gov = Governor::unlimited();
        let _scope = gov.install();
        pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        gov.cancel();
        let err = pool.with_frame_read(f, p, &r, |_| ()).unwrap_err();
        assert!(matches!(err, StorageError::Cancelled), "{err}");
        assert_eq!(pool.pinned_frames(), 0);
    }

    #[test]
    fn stable_cut_converges_on_quiet_counters() {
        let (vals, stable) = stable_cut(|| [1u64, 2, 3]);
        assert!(stable);
        assert_eq!(vals, [1, 2, 3]);
    }

    #[test]
    fn stable_cut_is_bounded_under_constant_motion() {
        // Regression: a counter that moves on every pass must not spin the
        // snapshot forever — the cut gives up after its retry cap and
        // reports instability.
        let mut ticks = 0u64;
        let (vals, stable) = stable_cut(|| {
            ticks += 1;
            [ticks]
        });
        assert!(!stable);
        assert_eq!(ticks, STABLE_CUT_RETRIES as u64 + 1);
        assert_eq!(vals, [ticks], "falls back to the last read");
    }

    #[test]
    fn unstable_snapshot_bumps_counter() {
        let pool = BufferPool::new(8, PS);
        let c = Counter::default();
        // Quiet counters: no instability recorded.
        read_stable([&pool.stats().wal_syncs], &c);
        assert_eq!(c.get(), 0);
        // A group that moves under the reader records the give-up.
        let moving = Counter::default();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    moving.inc();
                }
            });
            for _ in 0..64 {
                read_stable([&moving], &c);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // A tight incrementer on another core almost always outruns 8
        // retry passes at least once in 64 snapshots; but even if it never
        // does, the snapshot terminated — which is the property under test.
        assert!(c.get() <= 64);
    }

    #[test]
    fn snapshot_delta_is_per_interval() {
        let (pool, backend) = setup(8);
        let r = resolver(&backend);
        let f = FileId(0);
        let p = append(&backend, 0);
        pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        let before = pool.stats().snapshot();
        pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        pool.with_frame_read(f, p, &r, |_| ()).unwrap();
        let d = pool.stats().snapshot().delta(&before);
        assert_eq!(
            d,
            IoSnapshot {
                hits: 2,
                shard_locks: 2,
                ..IoSnapshot::default()
            }
        );
        // Saturates instead of underflowing if counters were reset between
        // the snapshots.
        pool.stats().reset();
        assert_eq!(
            pool.stats().snapshot().delta(&before),
            IoSnapshot::default()
        );
    }
}
