//! Page-image write-ahead log and crash recovery.
//!
//! The paper's M2 engine got durability "for free" from Berkeley DB; this
//! module supplies the equivalent guarantee for our storage manager. The
//! buffer pool runs a *steal / no-force* policy — dirty pages may be
//! written back at arbitrary eviction points, and a flush is not forced
//! after every operation — so without write-ahead ordering a crash
//! mid-insert could persist a half-updated B+-tree. The WAL restores the
//! invariant:
//!
//! * **Before any dirty page of a committed file reaches its data file**
//!   (eviction steal or [`crate::Env::flush`]), a [`Record::PageImage`]
//!   holding the page's *before* and *after* images is appended to the
//!   log and fsynced. Pages written under an open transaction carry the
//!   transaction's id ([`Record::TxnPageImage`]) so recovery can tell
//!   winners from losers even when records of several transactions
//!   interleave in the log.
//! * **The commit record is the catalog.** A commit point — a successful
//!   `Env::flush` ([`Record::Commit`]) or a transaction commit
//!   ([`Record::TxnCommit`]) — lists every committed file and its page
//!   count, as does every [`Record::Checkpoint`]. A *new* file is built
//!   without page images and fsynced once before the commit record that
//!   first lists it, so it needs no redo, and recovery deletes every file
//!   the catalog does not list. An untransacted drop is one
//!   [`Record::Delete`]; a transaction's drop is its absence from the
//!   commit's list. Markers are forced with [`Wal::sync_to`], the *group
//!   commit* path where N committers ride one `sync_data`.
//! * **Recovery** ([`replay`]) runs before any file of the environment is
//!   touched: the log is scanned with a checksum cut-off (a torn tail from
//!   a crash mid-append is discarded, not an error), and every page is
//!   restored with one rule — the after-image of its *last committed*
//!   update wins; a page with no committed update reverts to the
//!   before-image of its *first* update. Files outside the catalog are
//!   deleted, catalog files are brought to their committed page counts,
//!   and leftover temp files are removed. The log is then reset to a
//!   checkpoint carrying the catalog.
//! * **Checkpointing** atomically replaces the log with a fresh one-record
//!   log once the data files are known consistent (write to `wal.log.tmp`,
//!   fsync, rename over `wal.log`): there is no instant at which the log
//!   on disk is in a half-truncated state.
//!
//! ## Record format
//!
//! The log is a sequence of length-prefixed, CRC-32-checksummed records:
//!
//! ```text
//! record  := [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload := 0x01 page-image | 0x02 commit | 0x03 delete
//!          | 0x04 checkpoint | 0x05 txn-page-image | 0x06 txn-commit
//!          | 0x07 txn-abort
//! catalog := [page_size: u32] [n: u32] n × ([name] [pages: u64])
//! commit := catalog          txn-commit := [txn: u64] catalog
//! checkpoint := catalog      delete := [n: u32] n × [name]
//! ```
//!
//! A record whose length overruns the file or whose checksum mismatches
//! ends the scan: it *is* the torn tail. A log whose very first record is
//! torn — or a zero-length log — is explicitly an *empty* log, not
//! corruption; with no catalog record, recovery keeps every file. Page
//! images and catalogs are keyed by file *name* (not [`crate::FileId`],
//! which is assigned per-session) so replay can address the `.sdb` files
//! directly.

use crate::error::StorageError;
use crate::fault::FaultState;
use crate::page::PageId;
use crate::Result;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// `errno` for "no space left on device". Checked via
/// [`std::io::Error::raw_os_error`] because `ErrorKind::StorageFull` is
/// not yet stable on this toolchain.
const ENOSPC: i32 = 28;

/// Maps a real `ENOSPC` from the filesystem to the typed
/// [`StorageError::NoSpace`]; every other I/O error passes through.
fn map_no_space(e: std::io::Error) -> StorageError {
    if e.raw_os_error() == Some(ENOSPC) {
        StorageError::NoSpace
    } else {
        StorageError::from(e)
    }
}

/// Name of the log file inside an environment directory.
pub const WAL_FILE: &str = "wal.log";

/// Scratch name the atomic checkpoint stages the fresh log under before
/// renaming it over [`WAL_FILE`]. A leftover (crash between the staging
/// write and the rename) is removed by [`replay`].
pub const WAL_TMP_FILE: &str = "wal.log.tmp";

/// Log size (bytes) above which a commit triggers an automatic checkpoint.
pub const WAL_CHECKPOINT_BYTES: u64 = 4 << 20;

const TAG_PAGE_IMAGE: u8 = 0x01;
const TAG_COMMIT: u8 = 0x02;
const TAG_DELETE: u8 = 0x03;
const TAG_CHECKPOINT: u8 = 0x04;
const TAG_TXN_PAGE_IMAGE: u8 = 0x05;
const TAG_TXN_COMMIT: u8 = 0x06;
const TAG_TXN_ABORT: u8 = 0x07;

/// CRC-32 (IEEE, reflected) lookup table, built at compile time.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes`. Public because
/// the network wire protocol frames requests exactly like WAL records
/// (`[len][crc32][payload]`) and shares this checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Record {
    /// Before/after images of one page, logged ahead of the page write.
    PageImage {
        name: String,
        page: u64,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    /// Commit marker of a fully synced flush (commits every untagged
    /// image before it), carrying the catalog.
    Commit {
        page_size: u32,
        files: Vec<(String, u64)>,
    },
    /// Files dropped from the catalog (an untransacted drop).
    Delete { names: Vec<String> },
    /// Head of a freshly truncated log, carrying the catalog.
    Checkpoint {
        page_size: u32,
        files: Vec<(String, u64)>,
    },
    /// Before/after images of a page written under transaction `txn`.
    /// The before-image is the page's content when the transaction first
    /// touched it, so undo restores the pre-transaction state no matter
    /// how many times the page was stolen since.
    TxnPageImage {
        txn: u64,
        name: String,
        page: u64,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    /// Transaction commit marker; carries the catalog like
    /// [`Record::Commit`]. A transaction with this marker anywhere in the
    /// log is a recovery *winner*; one without is a loser.
    TxnCommit {
        txn: u64,
        page_size: u32,
        files: Vec<(String, u64)>,
    },
    /// Transaction rollback marker (informational: a transaction without a
    /// [`Record::TxnCommit`] is rolled back whether or not the abort
    /// record reached the log).
    TxnAbort { txn: u64 },
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_name(out: &mut Vec<u8>, name: &str) {
    put_u16(out, name.len() as u16);
    out.extend_from_slice(name.as_bytes());
}

/// Cursor over a payload during decoding; all readers fail soft (a
/// malformed payload is treated like a checksum mismatch by the caller).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn name(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    fn names(&mut self) -> Option<Vec<String>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.name()).collect()
    }
    fn file_counts(&mut self) -> Option<Vec<(String, u64)>> {
        let n = self.u32()? as usize;
        let mut files = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.name()?;
            let pages = self.u64()?;
            files.push((name, pages));
        }
        Some(files)
    }
}

fn put_page_images(p: &mut Vec<u8>, name: &str, page: u64, before: &[u8], after: &[u8]) {
    put_u32(p, before.len() as u32);
    put_name(p, name);
    put_u64(p, page);
    p.extend_from_slice(before);
    p.extend_from_slice(after);
}

fn put_file_counts(p: &mut Vec<u8>, files: &[(String, u64)]) {
    put_u32(p, files.len() as u32);
    for (name, pages) in files {
        put_name(p, name);
        put_u64(p, *pages);
    }
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Record::PageImage {
                name,
                page,
                before,
                after,
            } => {
                p.push(TAG_PAGE_IMAGE);
                put_page_images(&mut p, name, *page, before, after);
            }
            Record::Commit { page_size, files } => {
                p.push(TAG_COMMIT);
                put_u32(&mut p, *page_size);
                put_file_counts(&mut p, files);
            }
            Record::Delete { names } => {
                p.push(TAG_DELETE);
                put_u32(&mut p, names.len() as u32);
                for name in names {
                    put_name(&mut p, name);
                }
            }
            Record::Checkpoint { page_size, files } => {
                p.push(TAG_CHECKPOINT);
                put_u32(&mut p, *page_size);
                put_file_counts(&mut p, files);
            }
            Record::TxnPageImage {
                txn,
                name,
                page,
                before,
                after,
            } => {
                p.push(TAG_TXN_PAGE_IMAGE);
                put_u64(&mut p, *txn);
                put_page_images(&mut p, name, *page, before, after);
            }
            Record::TxnCommit {
                txn,
                page_size,
                files,
            } => {
                p.push(TAG_TXN_COMMIT);
                put_u64(&mut p, *txn);
                put_u32(&mut p, *page_size);
                put_file_counts(&mut p, files);
            }
            Record::TxnAbort { txn } => {
                p.push(TAG_TXN_ABORT);
                put_u64(&mut p, *txn);
            }
        }
        p
    }

    /// Decodes one payload; `None` means malformed (treated as torn).
    fn decode(payload: &[u8]) -> Option<Record> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let rec = match r.u8()? {
            TAG_PAGE_IMAGE => {
                let page_size = r.u32()? as usize;
                let name = r.name()?;
                let page = r.u64()?;
                let before = r.take(page_size)?.to_vec();
                let after = r.take(page_size)?.to_vec();
                Record::PageImage {
                    name,
                    page,
                    before,
                    after,
                }
            }
            TAG_COMMIT => {
                let page_size = r.u32()?;
                let files = r.file_counts()?;
                Record::Commit { page_size, files }
            }
            TAG_DELETE => Record::Delete { names: r.names()? },
            TAG_CHECKPOINT => {
                let page_size = r.u32()?;
                let files = r.file_counts()?;
                Record::Checkpoint { page_size, files }
            }
            TAG_TXN_PAGE_IMAGE => {
                let txn = r.u64()?;
                let page_size = r.u32()? as usize;
                let name = r.name()?;
                let page = r.u64()?;
                let before = r.take(page_size)?.to_vec();
                let after = r.take(page_size)?.to_vec();
                Record::TxnPageImage {
                    txn,
                    name,
                    page,
                    before,
                    after,
                }
            }
            TAG_TXN_COMMIT => {
                let txn = r.u64()?;
                let page_size = r.u32()?;
                let files = r.file_counts()?;
                Record::TxnCommit {
                    txn,
                    page_size,
                    files,
                }
            }
            TAG_TXN_ABORT => Record::TxnAbort { txn: r.u64()? },
            _ => return None,
        };
        (r.pos == payload.len()).then_some(rec)
    }
}

fn frame(record: &Record) -> Vec<u8> {
    let payload = record.encode();
    let mut framed = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut framed, payload.len() as u32);
    put_u32(&mut framed, crc32(&payload));
    framed.extend_from_slice(&payload);
    framed
}

/// What one append wrote: its size and the log end offset right after it —
/// the offset a committer hands to [`Wal::sync_to`] to make the record
/// durable.
#[derive(Debug, Clone, Copy)]
pub struct Appended {
    /// Bytes this append added to the log.
    pub bytes: u64,
    /// Log length immediately after this append.
    pub end: u64,
}

/// Group-commit state: how far the log is known durable, and whether a
/// leader's fsync is in flight. Committers that arrive while a leader is
/// inside `sync_data` park on the condvar; when the leader returns, the
/// durable watermark usually already covers them (their records were
/// appended before the leader snapshotted the length) and they finish
/// without an fsync of their own.
struct GroupState {
    /// Log offset up to which `sync_data` has returned.
    synced: u64,
    /// True while some thread is inside `sync_data`.
    syncing: bool,
}

/// The write-ahead log of one on-disk environment.
///
/// Appends serialize on a short length lock (reserve offset + positional
/// write); durability goes through [`Wal::sync_to`], the group-commit
/// gate, so concurrent committers batch behind a single `sync_data`.
pub struct Wal {
    path: PathBuf,
    /// The log file. `RwLock` so appends (read side, positional writes)
    /// run concurrently with each other while [`Wal::checkpoint`] (write
    /// side) can swap in the freshly renamed file.
    file: RwLock<File>,
    /// Current log length; held across the positional write so the group
    /// leader's length snapshot never covers a hole.
    len: Mutex<u64>,
    /// Group-commit gate (std primitives: the vendored `parking_lot` shim
    /// has no condvar).
    group: StdMutex<GroupState>,
    group_cv: Condvar,
    /// Optional fault plan: while its `wal_no_space` knob is set, appends
    /// and syncs fail with [`StorageError::NoSpace`] exactly like a real
    /// `ENOSPC`. The WAL writes through a plain [`File`] (no [`Backend`]
    /// indirection), so the decorator used for data files cannot reach it;
    /// this hook is the equivalent injection point.
    ///
    /// [`Backend`]: crate::backend::Backend
    faults: StdMutex<Option<Arc<FaultState>>>,
}

impl Wal {
    /// Opens (creating if missing) the log at `dir/wal.log`, appending at
    /// the end. Call [`replay`] first: a log that needs recovery must not
    /// be appended to.
    pub fn open(dir: &Path) -> Result<Wal> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            path,
            file: RwLock::new(file),
            len: Mutex::new(len),
            group: StdMutex::new(GroupState {
                // Nothing of the pre-open log needs re-syncing.
                synced: len,
                syncing: false,
            }),
            group_cv: Condvar::new(),
            faults: StdMutex::new(None),
        })
    }

    /// Attaches a fault plan whose `wal_no_space` knob simulates a full
    /// volume under the log (see [`FaultState::set_wal_no_space`]).
    pub fn set_faults(&self, faults: &Arc<FaultState>) {
        *self.faults.lock().unwrap() = Some(Arc::clone(faults));
    }

    /// True while the injected disk-full condition is active.
    fn no_space_injected(&self) -> bool {
        self.faults
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(|f| f.wal_no_space())
    }

    fn check_space(&self) -> Result<()> {
        if self.no_space_injected() {
            return Err(StorageError::NoSpace);
        }
        Ok(())
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        *self.len.lock()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&self, record: &Record) -> Result<Appended> {
        use std::os::unix::fs::FileExt;
        self.check_space()?;
        let framed = frame(record);
        let mut len = self.len.lock();
        let file = self.file.read();
        file.write_all_at(&framed, *len).map_err(map_no_space)?;
        *len += framed.len() as u64;
        Ok(Appended {
            bytes: framed.len() as u64,
            end: *len,
        })
    }

    /// Appends a page's before/after images. Returns what was appended.
    /// Not synced — call [`Wal::sync`] (or [`Wal::sync_to`]) before the
    /// page write it protects.
    pub fn append_page_image(
        &self,
        name: &str,
        page: PageId,
        before: &[u8],
        after: &[u8],
    ) -> Result<Appended> {
        check_image_pair(before, after)?;
        self.append(&Record::PageImage {
            name: name.to_string(),
            page: page.0,
            before: before.to_vec(),
            after: after.to_vec(),
        })
    }

    /// Appends a page image tagged with the owning transaction. `before`
    /// must be the page's content when `txn` first touched it.
    pub fn append_txn_page_image(
        &self,
        txn: u64,
        name: &str,
        page: PageId,
        before: &[u8],
        after: &[u8],
    ) -> Result<Appended> {
        check_image_pair(before, after)?;
        self.append(&Record::TxnPageImage {
            txn,
            name: name.to_string(),
            page: page.0,
            before: before.to_vec(),
            after: after.to_vec(),
        })
    }

    /// Appends a commit marker carrying the catalog.
    pub fn append_commit(&self, page_size: usize, files: Vec<(String, u64)>) -> Result<Appended> {
        self.append(&Record::Commit {
            page_size: page_size as u32,
            files,
        })
    }

    /// Appends a transaction commit marker. The transaction is durable
    /// once [`Wal::sync_to`] covers the returned end offset.
    pub fn append_txn_commit(
        &self,
        txn: u64,
        page_size: usize,
        files: Vec<(String, u64)>,
    ) -> Result<Appended> {
        self.append(&Record::TxnCommit {
            txn,
            page_size: page_size as u32,
            files,
        })
    }

    /// Appends a transaction abort marker (informational; not synced —
    /// a transaction without a commit marker is a loser regardless).
    pub fn append_txn_abort(&self, txn: u64) -> Result<Appended> {
        self.append(&Record::TxnAbort { txn })
    }

    /// Appends a marker dropping `names` from the catalog. Sync it with
    /// [`Wal::sync_to`] before deleting the files.
    pub fn append_delete(&self, names: Vec<String>) -> Result<Appended> {
        self.append(&Record::Delete { names })
    }

    /// Makes the log durable at least up to offset `upto` — the group
    /// commit gate. Returns `true` if *this* call issued an `sync_data`
    /// (it was a group leader), `false` if it rode a concurrent leader's
    /// fsync as a follower. Callers maintaining the `saardb_wal_syncs`
    /// counter increment it only on `true`, which is what makes group
    /// commit observable: fsyncs grow sublinearly in committers.
    pub fn sync_to(&self, upto: u64) -> Result<bool> {
        let mut did_fsync = false;
        let mut g = self.group.lock().unwrap();
        loop {
            if g.synced >= upto {
                return Ok(did_fsync);
            }
            if g.syncing {
                // A leader is inside sync_data; its result will cover every
                // byte appended before it snapshotted the length.
                g = self.group_cv.wait(g).unwrap();
                continue;
            }
            g.syncing = true;
            drop(g);
            // Snapshot outside the group lock: appenders hold `len` across
            // their positional write, so every byte below `target` is in
            // the file (possibly in the page cache) when sync_data runs.
            let target = *self.len.lock();
            let result = if self.no_space_injected() {
                Err(std::io::Error::from_raw_os_error(ENOSPC))
            } else {
                self.file.read().sync_data()
            };
            g = self.group.lock().unwrap();
            g.syncing = false;
            self.group_cv.notify_all();
            result.map_err(map_no_space)?;
            g.synced = g.synced.max(target);
            did_fsync = true;
        }
    }

    /// Forces every appended record to durable storage. Returns `true` if
    /// this call issued the fsync itself (see [`Wal::sync_to`]).
    pub fn sync(&self) -> Result<bool> {
        let end = self.len();
        self.sync_to(end)
    }

    /// Atomically replaces the log with a fresh one holding a single
    /// synced [`Record::Checkpoint`] carrying the catalog `files`: the new
    /// log is staged in
    /// `wal.log.tmp`, fsynced, and renamed over `wal.log`. A crash at any
    /// instant leaves either the complete old log or the complete new one
    /// — never the zero-length/torn-head state the old truncate-in-place
    /// scheme could expose between its `set_len(0)` and the synced fresh
    /// record. Only sound immediately after a commit (data files synced
    /// and consistent) with no transaction in flight.
    pub fn checkpoint(&self, page_size: usize, files: Vec<(String, u64)>) -> Result<()> {
        // A checkpoint reclaims log space, but it must still stage and
        // fsync a fresh one-record log: while the volume is (simulated)
        // full, that staging write fails like any other.
        self.check_space()?;
        let mut g = self.group.lock().unwrap();
        while g.syncing {
            g = self.group_cv.wait(g).unwrap();
        }
        let mut len = self.len.lock();
        let mut file = self.file.write();
        let dir = self
            .path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        let head = Record::Checkpoint {
            page_size: page_size as u32,
            files,
        };
        let (fresh, fresh_len) = fresh_log(&dir, Some(&head)).map_err(|e| match e {
            StorageError::Io(io) if io.raw_os_error() == Some(ENOSPC) => StorageError::NoSpace,
            other => other,
        })?;
        *file = fresh;
        *len = fresh_len;
        g.synced = fresh_len;
        drop(file);
        drop(len);
        drop(g);
        self.group_cv.notify_all();
        Ok(())
    }
}

/// Both images of a page-image record must be exactly one page. A
/// mismatched pair logged silently would corrupt undo: replay writes the
/// before-image back with the page size inferred from its length, so a
/// short image would splice into the wrong offsets.
fn check_image_pair(before: &[u8], after: &[u8]) -> Result<()> {
    if before.len() != after.len() {
        return Err(StorageError::PageBufferSize {
            len: after.len(),
            page_size: before.len(),
        });
    }
    Ok(())
}

/// Builds a fresh log in `dir` holding just `head` (or nothing) and
/// atomically installs it as `dir/wal.log` (stage in `wal.log.tmp`, fsync,
/// rename, fsync the directory). Returns the still-open file handle —
/// rename does not invalidate it — and the new log length.
fn fresh_log(dir: &Path, head: Option<&Record>) -> Result<(File, u64)> {
    use std::os::unix::fs::FileExt;
    let tmp = dir.join(WAL_TMP_FILE);
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    let framed = head.map(frame).unwrap_or_default();
    file.write_all_at(&framed, 0)?;
    file.sync_data()?;
    std::fs::rename(&tmp, dir.join(WAL_FILE))?;
    sync_dir(dir);
    Ok((file, framed.len() as u64))
}

/// Makes a directory's entries (creations, renames) durable. Best effort:
/// some filesystems refuse directory fsync.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("len", &self.len())
            .finish()
    }
}

/// What [`replay`] did to bring an environment directory back to its last
/// committed state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes in the log when recovery started.
    pub log_bytes: u64,
    /// Valid records scanned.
    pub records: usize,
    /// Bytes discarded as a torn tail (checksum/length cut-off).
    pub torn_bytes: u64,
    /// Committed page images re-applied (redo).
    pub pages_redone: usize,
    /// Uncommitted page images rolled back (undo).
    pub pages_undone: usize,
    /// Files truncated (or extended) to their committed page counts.
    pub files_truncated: usize,
    /// Files deleted: drops re-applied and uncommitted creations undone.
    pub files_deleted: usize,
    /// Leftover temp files removed.
    pub temp_files_removed: usize,
    /// True when a commit marker (environment epoch or transaction) was
    /// found; otherwise everything after the last checkpoint was rolled
    /// back.
    pub committed: bool,
    /// Transactions whose commit marker was found (winners, redone).
    pub txns_committed: usize,
    /// Transactions with page images but no commit marker (losers —
    /// in-flight or aborted at the crash — rolled back).
    pub txns_rolled_back: usize,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "wal: {} bytes, {} record(s), {} torn byte(s) discarded",
            self.log_bytes, self.records, self.torn_bytes
        )?;
        writeln!(
            f,
            "redo: {} page(s); undo: {} page(s); commit marker {}",
            self.pages_redone,
            self.pages_undone,
            if self.committed { "found" } else { "absent" }
        )?;
        writeln!(
            f,
            "txns: {} committed (redone), {} rolled back",
            self.txns_committed, self.txns_rolled_back
        )?;
        write!(
            f,
            "files: {} truncated, {} deleted, {} temp file(s) removed",
            self.files_truncated, self.files_deleted, self.temp_files_removed
        )
    }
}

impl RecoveryReport {
    /// True when recovery changed nothing (clean shutdown).
    pub fn is_clean(&self) -> bool {
        self.pages_redone == 0
            && self.pages_undone == 0
            && self.files_truncated == 0
            && self.files_deleted == 0
            && self.temp_files_removed == 0
            && self.torn_bytes == 0
    }
}

/// Parses the log into its valid record prefix, returning the records and
/// the number of torn bytes discarded.
fn scan_log(bytes: &[u8]) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break; // length overruns the file: torn tail
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = Record::decode(payload) else {
            break;
        };
        records.push(record);
        pos += 8 + len;
    }
    (records, (bytes.len() - pos) as u64)
}

/// Opens (creating if absent) a data file for recovery writes.
fn recovery_file(dir: &Path, name: &str) -> Result<File> {
    Ok(OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join(format!("{name}.sdb")))?)
}

/// The resolved fate of one page: enough of its update history to decide
/// its recovered content with the one-rule resolution (last committed
/// after-image wins; otherwise the first update's before-image).
struct PageFate {
    /// Before-image of the page's *first* logged update — the
    /// pre-crash-epoch content every loser chain unwinds to.
    first_before: Vec<u8>,
    /// After-image of the page's *last committed* update, if any.
    last_committed: Option<Vec<u8>>,
    /// Committed update records seen (report accounting).
    redo_records: usize,
    /// Loser update records seen (report accounting).
    undo_records: usize,
}

/// Replays `dir/wal.log`, restoring every data file to the state of the
/// last commit marker(s), then resets the log. Idempotent; a missing,
/// zero-length or head-torn log is an *empty* log and yields no
/// redo/undo work (leftover temp files are still removed).
///
/// Transactions interleave freely in the log: each page is restored to
/// the after-image of its last update by a committed transaction or
/// committed environment epoch; a page touched only by losers reverts to
/// its first update's before-image.
///
/// The catalog is the last commit or checkpoint record's list less later
/// [`Record::Delete`]s; every other data file is an uncommitted creation
/// (or a drop) and is deleted. A log without a catalog record (empty, or
/// from an older build) keeps every file.
///
/// Must run before any file of the environment is opened —
/// [`crate::Env::open_dir`] does this automatically; the `saardb recover`
/// subcommand exposes it manually.
pub fn replay(dir: &Path) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();

    // A leftover staging file from a checkpoint that crashed between the
    // staging write and the rename is garbage either way: the rename
    // either happened (wal.log is the fresh log) or it did not (wal.log is
    // the complete old log).
    match std::fs::remove_file(dir.join(WAL_TMP_FILE)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }

    let wal_path = dir.join(WAL_FILE);
    let bytes = match File::open(&wal_path) {
        Ok(mut f) => {
            let mut buf = Vec::new();
            f.read_to_end(&mut buf)?;
            buf
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    report.log_bytes = bytes.len() as u64;
    let (records, torn) = scan_log(&bytes);
    report.records = records.len();
    report.torn_bytes = torn;

    // Who committed? Environment epochs: every untagged image at or
    // before the LAST epoch marker. Transactions: every image whose
    // transaction has a TxnCommit marker anywhere in the log.
    let last_epoch_commit = records
        .iter()
        .rposition(|r| matches!(r, Record::Commit { .. }));
    let mut winners: HashSet<u64> = HashSet::new();
    let mut txns_seen: HashSet<u64> = HashSet::new();
    for r in &records {
        match r {
            Record::TxnCommit { txn, .. } => {
                winners.insert(*txn);
                txns_seen.insert(*txn);
            }
            Record::TxnPageImage { txn, .. } | Record::TxnAbort { txn } => {
                txns_seen.insert(*txn);
            }
            _ => {}
        }
    }
    report.txns_committed = winners.len();
    report.txns_rolled_back = txns_seen.len() - winners.len();
    report.committed = last_epoch_commit.is_some() || !winners.is_empty();

    use std::os::unix::fs::FileExt;
    let mut files: HashMap<String, File> = HashMap::new();
    let mut catalog: Option<(u64, HashMap<String, u64>)> = None;
    // Without a catalog, drops are re-applied by name.
    let mut deleted: HashSet<String> = HashSet::new();
    let mut fates: HashMap<(String, u64), PageFate> = HashMap::new();

    for (i, record) in records.iter().enumerate() {
        let (name, page, before, after, committed) = match record {
            Record::PageImage {
                name,
                page,
                before,
                after,
            } => (
                name,
                *page,
                before,
                after,
                last_epoch_commit.is_some_and(|c| i <= c),
            ),
            Record::TxnPageImage {
                txn,
                name,
                page,
                before,
                after,
            } => (name, *page, before, after, winners.contains(txn)),
            Record::Delete { names } => {
                // A later file of the same name is a new file.
                fates.retain(|(n, _), _| !names.contains(n));
                if let Some((_, listed)) = &mut catalog {
                    for name in names {
                        listed.remove(name);
                    }
                }
                deleted.extend(names.iter().cloned());
                continue;
            }
            Record::Commit { page_size, files }
            | Record::TxnCommit {
                page_size, files, ..
            }
            | Record::Checkpoint { page_size, files } => {
                let listed: HashMap<String, u64> = files.iter().cloned().collect();
                fates.retain(|(n, _), _| listed.contains_key(n));
                catalog = Some((u64::from(*page_size), listed));
                continue;
            }
            Record::TxnAbort { .. } => continue,
        };
        // An image after a deletion means the name was recreated.
        deleted.remove(name);
        let fate = fates
            .entry((name.clone(), page))
            .or_insert_with(|| PageFate {
                first_before: before.clone(),
                last_committed: None,
                redo_records: 0,
                undo_records: 0,
            });
        if committed {
            fate.last_committed = Some(after.clone());
            fate.redo_records += 1;
        } else {
            fate.undo_records += 1;
        }
    }

    // Delete what the catalog does not hold (uncommitted creations and
    // drops), or without a catalog what a drop removed; leftover scratch
    // files from a crashed process are garbage too.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            let Some(stem) = fname.strip_suffix(".sdb") else {
                continue;
            };
            if stem.starts_with("__tmp-") {
                std::fs::remove_file(entry.path())?;
                report.temp_files_removed += 1;
            } else if catalog
                .as_ref()
                .map_or(deleted.contains(stem), |(_, c)| !c.contains_key(stem))
            {
                std::fs::remove_file(entry.path())?;
                report.files_deleted += 1;
            }
        }
    }
    // Apply each page's resolved fate with one write.
    for ((name, page), fate) in &fates {
        let file = match files.entry(name.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(recovery_file(dir, name)?),
        };
        let image = fate.last_committed.as_ref().unwrap_or(&fate.first_before);
        file.write_all_at(image, page * image.len() as u64)?;
        report.pages_redone += fate.redo_records;
        report.pages_undone += fate.undo_records;
    }

    // Bring files to their committed page counts: pages allocated after
    // the last commit are provisional (allocation extends files eagerly,
    // outside the pool); a lost committed extension comes back zeroed.
    if let Some((page_size, counts)) = &catalog {
        for (name, pages) in counts {
            let path = dir.join(format!("{name}.sdb"));
            let Ok(meta) = std::fs::metadata(&path) else {
                continue;
            };
            let committed_len = pages * page_size;
            if meta.len() != committed_len {
                let file = match files.entry(name.clone()) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(recovery_file(dir, name)?)
                    }
                };
                file.set_len(committed_len)?;
                report.files_truncated += 1;
            }
        }
    }

    for file in files.values() {
        file.sync_data()?;
    }

    // The data files now hold the committed state: reset the log (same
    // atomic stage-and-rename as a live checkpoint), keeping the catalog.
    if report.log_bytes > 0 {
        let head = catalog.map(|(page_size, counts)| Record::Checkpoint {
            page_size: page_size as u32,
            files: counts.into_iter().collect(),
        });
        fresh_log(dir, head.as_ref())?;
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("saardb-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read_file(dir: &Path, name: &str) -> Vec<u8> {
        std::fs::read(dir.join(format!("{name}.sdb"))).unwrap()
    }

    const PS: usize = 64;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PS]
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_roundtrip() {
        let records = [
            Record::PageImage {
                name: "nodes".into(),
                page: 7,
                before: page(1),
                after: page(2),
            },
            Record::Commit {
                page_size: PS as u32,
                files: vec![("nodes".into(), 3), ("idx".into(), 9)],
            },
            Record::Delete {
                names: vec!["old".into(), "older".into()],
            },
            Record::Checkpoint {
                page_size: PS as u32,
                files: vec![("nodes".into(), 3)],
            },
            Record::TxnPageImage {
                txn: 42,
                name: "nodes".into(),
                page: 5,
                before: page(3),
                after: page(4),
            },
            Record::TxnCommit {
                txn: 42,
                page_size: PS as u32,
                files: vec![("nodes".into(), 6)],
            },
            Record::TxnAbort { txn: 43 },
        ];
        for r in &records {
            assert_eq!(Record::decode(&r.encode()).as_ref(), Some(r));
        }
    }

    #[test]
    fn replay_of_missing_log_is_clean() {
        let dir = tmp_dir("missing");
        let report = replay(&dir).unwrap();
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn redo_applies_committed_images() {
        let dir = tmp_dir("redo");
        let wal = Wal::open(&dir).unwrap();
        wal.append_page_image("f", PageId(0), &page(0), &page(0xAA))
            .unwrap();
        wal.append_page_image("f", PageId(1), &page(0), &page(0xBB))
            .unwrap();
        wal.append_commit(PS, vec![("f".into(), 2)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let report = replay(&dir).unwrap();
        assert_eq!(report.pages_redone, 2);
        assert_eq!(report.pages_undone, 0);
        assert!(report.committed);
        let bytes = read_file(&dir, "f");
        assert_eq!(&bytes[..PS], &page(0xAA)[..]);
        assert_eq!(&bytes[PS..2 * PS], &page(0xBB)[..]);
        // Log was reset to a bare checkpoint: a second replay is a no-op.
        let again = replay(&dir).unwrap();
        assert_eq!(again.pages_redone, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_rolls_back_uncommitted_steals_in_reverse() {
        let dir = tmp_dir("undo");
        // Data file already holds the (uncommitted) stolen content.
        std::fs::write(dir.join("f.sdb"), page(0x33)).unwrap();
        let wal = Wal::open(&dir).unwrap();
        // The same page stolen twice after the last commit: committed
        // content 0x11, then 0x22 hit the disk, then 0x33.
        wal.append_page_image("f", PageId(0), &page(0x11), &page(0x22))
            .unwrap();
        wal.append_page_image("f", PageId(0), &page(0x22), &page(0x33))
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let report = replay(&dir).unwrap();
        assert_eq!(report.pages_undone, 2);
        assert!(!report.committed);
        assert_eq!(read_file(&dir, "f"), page(0x11));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_off() {
        let dir = tmp_dir("torn");
        let wal = Wal::open(&dir).unwrap();
        wal.append_page_image("f", PageId(0), &page(0), &page(0xAA))
            .unwrap();
        wal.append_commit(PS, vec![("f".into(), 1)]).unwrap();
        wal.sync().unwrap();
        let len = wal.len();
        wal.append_page_image("f", PageId(0), &page(0xAA), &page(0xBB))
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Chop mid-way through the last record: a crash during append.
        let log = dir.join(WAL_FILE);
        let full = std::fs::metadata(&log).unwrap().len();
        let cut = len + (full - len) / 2;
        OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let report = replay(&dir).unwrap();
        assert_eq!(report.torn_bytes, cut - len);
        assert_eq!(report.records, 2);
        assert_eq!(report.pages_redone, 1);
        assert_eq!(read_file(&dir, "f")[..PS], page(0xAA)[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_truncates_provisional_allocation() {
        let dir = tmp_dir("trunc");
        // File grew to 3 pages, but only 1 was committed.
        std::fs::write(dir.join("f.sdb"), [page(1), page(2), page(3)].concat()).unwrap();
        let wal = Wal::open(&dir).unwrap();
        wal.append_commit(PS, vec![("f".into(), 1)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let report = replay(&dir).unwrap();
        assert_eq!(report.files_truncated, 1);
        assert_eq!(read_file(&dir, "f").len(), PS);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_records_reapply_and_cancel_undo() {
        let dir = tmp_dir("delete");
        std::fs::write(dir.join("gone.sdb"), page(9)).unwrap();
        let wal = Wal::open(&dir).unwrap();
        wal.append_page_image("gone", PageId(0), &page(1), &page(9))
            .unwrap();
        wal.append_delete(vec!["gone".into()]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let report = replay(&dir).unwrap();
        assert_eq!(report.files_deleted, 1);
        assert_eq!(report.pages_undone, 0, "undo for a dropped file is moot");
        assert!(!dir.join("gone.sdb").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_removes_leftover_temp_files() {
        let dir = tmp_dir("temps");
        std::fs::write(dir.join("__tmp-1234-1.sdb"), page(0)).unwrap();
        std::fs::write(dir.join("keep.sdb"), page(0)).unwrap();
        let report = replay(&dir).unwrap();
        assert_eq!(report.temp_files_removed, 1);
        assert!(dir.join("keep.sdb").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_image_lengths_rejected() {
        // Regression: this used to be a debug_assert only — release builds
        // silently logged a mismatched pair and corrupted undo.
        let dir = tmp_dir("mismatch");
        let wal = Wal::open(&dir).unwrap();
        let err = wal
            .append_page_image("f", PageId(0), &page(0), &[0u8; PS / 2])
            .unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::PageBufferSize {
                    len,
                    page_size
                } if len == PS / 2 && page_size == PS
            ),
            "{err}"
        );
        let err = wal
            .append_txn_page_image(1, "f", PageId(0), &[0u8; PS - 1], &page(0))
            .unwrap_err();
        assert!(matches!(err, StorageError::PageBufferSize { .. }), "{err}");
        assert!(wal.is_empty(), "rejected records must not reach the log");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_log_is_empty_not_corrupt() {
        // The crash window of the old truncate-in-place checkpoint: a kill
        // right after set_len(0).
        let dir = tmp_dir("zerolen");
        std::fs::write(dir.join("f.sdb"), page(0x77)).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"").unwrap();
        let report = replay(&dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.records, 0);
        assert_eq!(read_file(&dir, "f"), page(0x77), "data untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_head_log_is_empty_not_corrupt() {
        // The other half of the old checkpoint crash window: the fresh
        // checkpoint record was half-written when the process died.
        let dir = tmp_dir("tornhead");
        std::fs::write(dir.join("f.sdb"), page(0x77)).unwrap();
        let full = frame(&Record::Checkpoint {
            page_size: PS as u32,
            files: vec![("f".into(), 1)],
        });
        std::fs::write(dir.join(WAL_FILE), &full[..full.len() - 1]).unwrap();
        let report = replay(&dir).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.torn_bytes, full.len() as u64 - 1);
        assert_eq!(report.pages_redone + report.pages_undone, 0);
        assert_eq!(read_file(&dir, "f"), page(0x77), "data untouched");
        // The reset left a valid log behind.
        let again = replay(&dir).unwrap();
        assert_eq!(again.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_removes_stale_checkpoint_staging_file() {
        let dir = tmp_dir("stale-tmp");
        std::fs::write(dir.join(WAL_TMP_FILE), b"half-written garbage").unwrap();
        replay(&dir).unwrap();
        assert!(!dir.join(WAL_TMP_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_is_atomic_under_reopen() {
        let dir = tmp_dir("ckpt-atomic");
        let wal = Wal::open(&dir).unwrap();
        wal.append_page_image("f", PageId(0), &page(0), &page(1))
            .unwrap();
        wal.sync().unwrap();
        wal.checkpoint(PS, vec![("f".into(), 1)]).unwrap();
        assert!(!dir.join(WAL_TMP_FILE).exists(), "staging file renamed");
        // The swapped-in handle keeps appending to the new log.
        wal.append_page_image("f", PageId(0), &page(1), &page(2))
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (records, torn) = scan_log(&std::fs::read(dir.join(WAL_FILE)).unwrap());
        assert_eq!(torn, 0);
        assert!(matches!(records[0], Record::Checkpoint { .. }));
        assert_eq!(records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interleaved_txns_winner_redone_loser_undone() {
        let dir = tmp_dir("interleaved");
        let wal = Wal::open(&dir).unwrap();
        // Two transactions interleave their steals; txn 1 commits, txn 2
        // is in flight at the crash.
        wal.append_txn_page_image(1, "a", PageId(0), &page(0), &page(0x1A))
            .unwrap();
        wal.append_txn_page_image(2, "b", PageId(0), &page(0), &page(0x2A))
            .unwrap();
        wal.append_txn_page_image(1, "a", PageId(1), &page(0), &page(0x1B))
            .unwrap();
        wal.append_txn_commit(1, PS, vec![("a".into(), 2), ("b".into(), 1)])
            .unwrap();
        wal.append_txn_page_image(2, "b", PageId(0), &page(0x2A), &page(0x2B))
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Pretend the loser's steals reached the data file.
        std::fs::write(dir.join("b.sdb"), page(0x2B)).unwrap();
        let report = replay(&dir).unwrap();
        assert_eq!(report.txns_committed, 1);
        assert_eq!(report.txns_rolled_back, 1);
        assert_eq!(report.pages_redone, 2);
        assert_eq!(report.pages_undone, 2);
        assert!(report.committed);
        let a = read_file(&dir, "a");
        assert_eq!(&a[..PS], &page(0x1A)[..]);
        assert_eq!(&a[PS..2 * PS], &page(0x1B)[..]);
        // The loser's page reverts to its first update's before-image.
        assert_eq!(read_file(&dir, "b"), page(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_txn_wins_over_later_loser_on_same_page() {
        let dir = tmp_dir("same-page");
        let wal = Wal::open(&dir).unwrap();
        // Winner writes page 0, then a loser rewrites it (lock released at
        // commit, second txn touched the page, crashed in flight).
        wal.append_txn_page_image(1, "f", PageId(0), &page(0), &page(0x11))
            .unwrap();
        wal.append_txn_commit(1, PS, vec![("f".into(), 1)]).unwrap();
        wal.append_txn_page_image(2, "f", PageId(0), &page(0x11), &page(0x22))
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        std::fs::write(dir.join("f.sdb"), page(0x22)).unwrap();
        let report = replay(&dir).unwrap();
        assert_eq!(read_file(&dir, "f"), page(0x11), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborted_txn_counts_as_rolled_back() {
        let dir = tmp_dir("abort");
        let wal = Wal::open(&dir).unwrap();
        wal.append_txn_page_image(7, "f", PageId(0), &page(0), &page(1))
            .unwrap();
        wal.append_txn_abort(7).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let report = replay(&dir).unwrap();
        assert_eq!(report.txns_committed, 0);
        assert_eq!(report.txns_rolled_back, 1);
        assert_eq!(read_file(&dir, "f"), page(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_sync_to_batches_behind_one_fsync() {
        let dir = tmp_dir("group");
        let wal = std::sync::Arc::new(Wal::open(&dir).unwrap());
        let ends: Vec<u64> = (0..4)
            .map(|i| {
                wal.append_txn_page_image(i, "f", PageId(0), &page(0), &page(1))
                    .unwrap()
                    .end
            })
            .collect();
        // One leader fsync at the max offset covers every earlier offset.
        assert!(wal.sync_to(*ends.last().unwrap()).unwrap());
        for &end in &ends {
            assert!(
                !wal.sync_to(end).unwrap(),
                "already-durable offsets must not fsync again"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_epoch_and_txn_commit_both_mark_committed() {
        let dir = tmp_dir("both-commit");
        let wal = Wal::open(&dir).unwrap();
        wal.append_page_image("f", PageId(0), &page(0), &page(0xEE))
            .unwrap();
        wal.append_commit(PS, vec![("f".into(), 1)]).unwrap();
        wal.append_txn_page_image(3, "f", PageId(0), &page(0xEE), &page(0xFF))
            .unwrap();
        wal.append_txn_commit(3, PS, vec![("f".into(), 1)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let report = replay(&dir).unwrap();
        assert!(report.committed);
        assert_eq!(report.pages_redone, 2);
        // The txn committed after the epoch: its after-image wins.
        assert_eq!(read_file(&dir, "f"), page(0xFF));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_deletes_uncommitted_and_dropped_files() {
        let dir = tmp_dir("catalog");
        for name in ["kept", "new", "dropped"] {
            std::fs::write(dir.join(format!("{name}.sdb")), page(1)).unwrap();
        }
        let wal = Wal::open(&dir).unwrap();
        // "new" was created after this commit and never committed;
        // "dropped" was committed, then dropped.
        wal.append_commit(PS, vec![("kept".into(), 1), ("dropped".into(), 1)])
            .unwrap();
        wal.append_delete(vec!["dropped".into()]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let report = replay(&dir).unwrap();
        assert_eq!(report.files_deleted, 2, "{report}");
        assert!(dir.join("kept.sdb").exists());
        assert!(!dir.join("new.sdb").exists());
        assert!(!dir.join("dropped.sdb").exists());
        // The reset log keeps the catalog: a second replay deletes nothing.
        std::fs::write(dir.join("later.sdb"), page(1)).unwrap();
        let again = replay(&dir).unwrap();
        assert_eq!(again.files_deleted, 1, "uncommitted after the reset too");
        assert!(dir.join("kept.sdb").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_extends_files_to_their_committed_length() {
        let dir = tmp_dir("extend");
        std::fs::write(dir.join("f.sdb"), page(1)).unwrap();
        let wal = Wal::open(&dir).unwrap();
        wal.append_commit(PS, vec![("f".into(), 3)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        replay(&dir).unwrap();
        let bytes = read_file(&dir, "f");
        assert_eq!(bytes.len(), 3 * PS);
        assert_eq!(&bytes[..PS], &page(1)[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
