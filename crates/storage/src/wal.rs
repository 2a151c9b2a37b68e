//! Commit log and crash recovery.
//!
//! The paper's M2 engine got durability "for free" from Berkeley DB; this
//! module supplies the equivalent guarantee for our storage manager. No
//! operation rewrites a page of a committed file: a load builds new files,
//! a drop retires committed ones, and a query reads (see [`crate::txn`]).
//! So the log holds no page images, only the catalog and its changes:
//!
//! * **A commit record is a catalog delta.** [`Record::Commit`] lists the
//!   files a transaction adds, each with its page count, and the names it
//!   drops. Each new file is written back and fsynced before the record
//!   that first lists it, so it needs no redo; a file the last catalog
//!   does not list is an uncommitted creation or a drop, and recovery
//!   deletes it. Commit records are forced with [`Wal::sync_to`], the
//!   *group commit* path where N committers ride one `sync_data`.
//! * **A checkpoint is the whole catalog.** [`Record::Checkpoint`] lists
//!   every committed file and its page count. Every log starts with one
//!   (opening an environment writes it), so the catalog at any point is
//!   the last checkpoint with the later commit records folded onto it.
//! * **Recovery** ([`replay`]) runs before any file of the environment is
//!   touched: the log is scanned with a checksum cut-off (a torn tail from
//!   a crash mid-append is discarded, not an error), the catalog is
//!   folded, files outside it are deleted, catalog files are brought to
//!   their committed page counts, and leftover temp files are removed. The
//!   log is then reset to a checkpoint carrying the catalog.
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
//! payload := 0x04 checkpoint | 0x08 commit
//! files   := [n: u32] n × ([name] [pages: u64])
//! checkpoint := [page_size: u32] files
//! commit  := files [m: u32] m × [name]
//! name    := [len: u16] [utf-8 bytes]
//! ```
//!
//! A record whose length overruns the file or whose checksum mismatches
//! ends the scan: it *is* the torn tail. A log whose very first record is
//! torn — or a zero-length log — is explicitly an *empty* log, not
//! corruption; with no catalog record, recovery keeps every file. A record
//! whose checksum holds but whose kind is unknown — tags 0x01–0x03 and
//! 0x05–0x07 belong to retired log formats — is not a torn tail: recovery
//! refuses the log with [`StorageError::UnknownLogRecord`] and touches no
//! file. Catalogs are keyed by file *name* (not [`crate::FileId`], which is
//! assigned per-session) so replay can address the `.sdb` files directly.

use crate::error::StorageError;
use crate::fault::FaultState;
use crate::Result;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
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

const TAG_CHECKPOINT: u8 = 0x04;
const TAG_COMMIT: u8 = 0x08;

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
    /// The whole catalog: every committed file and its page count. Heads
    /// every log.
    Checkpoint {
        page_size: u32,
        files: Vec<(String, u64)>,
    },
    /// One committed transaction's catalog change: the files it added, with
    /// their page counts, and the names it dropped.
    Commit {
        added: Vec<(String, u64)>,
        dropped: Vec<String>,
    },
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
    fn file_counts(&mut self) -> Option<Vec<(String, u64)>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| Some((self.name()?, self.u64()?))).collect()
    }
    fn names(&mut self) -> Option<Vec<String>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.name()).collect()
    }
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
            Record::Checkpoint { page_size, files } => {
                p.push(TAG_CHECKPOINT);
                put_u32(&mut p, *page_size);
                put_file_counts(&mut p, files);
            }
            Record::Commit { added, dropped } => {
                p.push(TAG_COMMIT);
                put_file_counts(&mut p, added);
                put_u32(&mut p, dropped.len() as u32);
                for name in dropped {
                    put_name(&mut p, name);
                }
            }
        }
        p
    }

    /// Decodes one payload; `None` means an unknown tag or a malformed
    /// body.
    fn decode(payload: &[u8]) -> Option<Record> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let rec = match r.u8()? {
            TAG_CHECKPOINT => Record::Checkpoint {
                page_size: r.u32()?,
                files: r.file_counts()?,
            },
            TAG_COMMIT => Record::Commit {
                added: r.file_counts()?,
                dropped: r.names()?,
            },
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

    /// Appends a commit record: the files a transaction adds, with their
    /// page counts, and the names it drops. The transaction is durable
    /// once [`Wal::sync_to`] covers the returned end offset.
    pub fn append_commit(
        &self,
        added: Vec<(String, u64)>,
        dropped: Vec<String>,
    ) -> Result<Appended> {
        self.append(&Record::Commit { added, dropped })
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
    /// record. Only sound once the data files hold everything the log
    /// holds, with no transaction in flight: so it happens only while the
    /// log is still `expect_len` bytes long — the length the caller saw
    /// before writing the data files back — and returns whether it did.
    pub fn checkpoint(
        &self,
        page_size: usize,
        files: Vec<(String, u64)>,
        expect_len: u64,
    ) -> Result<bool> {
        // A checkpoint reclaims log space, but it must still stage and
        // fsync a fresh one-record log: while the volume is (simulated)
        // full, that staging write fails like any other.
        self.check_space()?;
        let mut g = self.group.lock().unwrap();
        while g.syncing {
            g = self.group_cv.wait(g).unwrap();
        }
        let mut len = self.len.lock();
        if *len != expect_len {
            return Ok(false);
        }
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
        Ok(true)
    }
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
    /// Commit records folded onto the last checkpoint.
    pub txns_committed: usize,
    /// Files truncated (or extended) to their committed page counts.
    pub files_truncated: usize,
    /// Files deleted: drops re-applied and uncommitted creations undone.
    pub files_deleted: usize,
    /// Leftover temp files removed.
    pub temp_files_removed: usize,
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
            "commits: {} since the last checkpoint",
            self.txns_committed
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
        self.files_truncated == 0
            && self.files_deleted == 0
            && self.temp_files_removed == 0
            && self.torn_bytes == 0
    }
}

/// Parses the log into its valid record prefix, returning the records and
/// the number of torn bytes discarded. A frame whose checksum holds but
/// whose payload does not decode is an error, not a torn tail.
fn scan_log(bytes: &[u8]) -> Result<(Vec<Record>, u64)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        // A zero length is a zero-filled tail (a crash after the file grew
        // but before its bytes landed): every record has a tag.
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len).filter(|_| len > 0) else {
            break; // length overruns the file: torn tail
        };
        if crc32(payload) != crc {
            break;
        }
        let record = Record::decode(payload).ok_or(StorageError::UnknownLogRecord {
            offset: pos as u64,
            tag: payload[0],
        })?;
        records.push(record);
        pos += 8 + len;
    }
    Ok((records, (bytes.len() - pos) as u64))
}

/// Replays `dir/wal.log`, restoring the directory to the committed
/// catalog, then resets the log. Idempotent; a missing, zero-length or
/// head-torn log is an *empty* log (leftover temp files are still
/// removed).
///
/// The catalog is the last checkpoint with every later commit record
/// folded onto it; every other data file is an uncommitted creation (or a
/// drop) and is deleted. A log without a catalog record (an empty one)
/// keeps every file. A log with a record this build cannot decode is
/// refused before any file is touched.
///
/// Must run before any file of the environment is opened —
/// [`crate::Env::open_dir`] does this automatically; the `saardb recover`
/// subcommand exposes it manually.
pub fn replay(dir: &Path) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
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
    let (records, torn) = scan_log(&bytes)?;
    report.records = records.len();
    report.torn_bytes = torn;

    // A leftover staging file from a checkpoint that crashed between the
    // staging write and the rename is garbage either way: the rename
    // either happened (wal.log is the fresh log) or it did not (wal.log is
    // the complete old log).
    match std::fs::remove_file(dir.join(WAL_TMP_FILE)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }

    let mut catalog: Option<(u64, HashMap<String, u64>)> = None;
    for record in records {
        match record {
            Record::Checkpoint { page_size, files } => {
                catalog = Some((u64::from(page_size), files.into_iter().collect()));
            }
            Record::Commit { added, dropped } => {
                let Some((_, files)) = catalog.as_mut() else {
                    return Err(StorageError::corrupt(
                        "write-ahead log: a commit record precedes every checkpoint",
                    ));
                };
                for name in &dropped {
                    files.remove(name);
                }
                files.extend(added);
                report.txns_committed += 1;
            }
        }
    }

    // Delete what the catalog does not hold (uncommitted creations and
    // drops); leftover scratch files from a crashed process are garbage
    // too.
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
            } else if catalog.as_ref().is_some_and(|(_, c)| !c.contains_key(stem)) {
                std::fs::remove_file(entry.path())?;
                report.files_deleted += 1;
            }
        }
    }

    // Bring files to their committed page counts: a commit fsyncs its new
    // files before its record, so a mismatch is a file the disk changed
    // behind the log; a lost committed extension comes back zeroed.
    if let Some((page_size, counts)) = &catalog {
        for (name, pages) in counts {
            let path = dir.join(format!("{name}.sdb"));
            let Ok(meta) = std::fs::metadata(&path) else {
                continue;
            };
            let committed_len = pages * page_size;
            if meta.len() != committed_len {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(committed_len)?;
                file.sync_data()?;
                report.files_truncated += 1;
            }
        }
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

    fn checkpoint(files: &[(&str, u64)]) -> Record {
        Record::Checkpoint {
            page_size: PS as u32,
            files: files.iter().map(|&(n, p)| (n.to_string(), p)).collect(),
        }
    }

    fn commit(added: &[(&str, u64)], dropped: &[&str]) -> Record {
        Record::Commit {
            added: added.iter().map(|&(n, p)| (n.to_string(), p)).collect(),
            dropped: dropped.iter().map(|n| n.to_string()).collect(),
        }
    }

    /// Writes `records` as the directory's whole log.
    fn write_log(dir: &Path, records: &[Record]) {
        std::fs::write(
            dir.join(WAL_FILE),
            records.iter().flat_map(frame).collect::<Vec<u8>>(),
        )
        .unwrap();
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_roundtrip() {
        let records = [
            checkpoint(&[("nodes", 3)]),
            commit(&[("nodes", 6), ("labels", 2)], &["old"]),
            commit(&[], &[]),
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
    fn torn_tail_is_cut_off() {
        let dir = tmp_dir("torn");
        std::fs::write(dir.join("f.sdb"), page(0xAA)).unwrap();
        std::fs::write(dir.join("g.sdb"), page(0xBB)).unwrap();
        let wal = Wal::open(&dir).unwrap();
        wal.checkpoint(PS, vec![], 0).unwrap();
        wal.append_commit(vec![("f".into(), 1)], vec![]).unwrap();
        wal.sync().unwrap();
        let len = wal.len();
        wal.append_commit(vec![("g".into(), 1)], vec![]).unwrap();
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
        assert_eq!(report.txns_committed, 1);
        assert_eq!(read_file(&dir, "f"), page(0xAA));
        assert!(!dir.join("g.sdb").exists(), "its commit record was torn");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_filled_tail_is_torn_not_unknown() {
        let dir = tmp_dir("zeros");
        std::fs::write(dir.join("f.sdb"), page(1)).unwrap();
        let mut log: Vec<u8> = [checkpoint(&[("f", 1)])].iter().flat_map(frame).collect();
        log.extend_from_slice(&[0u8; 24]);
        std::fs::write(dir.join(WAL_FILE), log).unwrap();
        let report = replay(&dir).unwrap();
        assert_eq!(report.torn_bytes, 24);
        assert_eq!(read_file(&dir, "f"), page(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_record_kind_is_refused_before_any_file_changes() {
        let dir = tmp_dir("unknown");
        for name in ["a", "b", "__tmp-1-1"] {
            std::fs::write(dir.join(format!("{name}.sdb")), page(1)).unwrap();
        }
        // A record of a retired format (0x01, checksum intact) between the
        // checkpoint and a commit that lists "b".
        let mut log: Vec<u8> = frame(&checkpoint(&[("a", 1)]));
        let retired = [0x01u8, 7, 0, 0, 0, 0, 0, 0, 0];
        put_u32(&mut log, retired.len() as u32);
        put_u32(&mut log, crc32(&retired));
        log.extend_from_slice(&retired);
        let offset = frame(&checkpoint(&[("a", 1)])).len() as u64;
        log.extend(frame(&commit(&[("b", 1)], &[])));
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        std::fs::write(dir.join(WAL_TMP_FILE), b"staged").unwrap();
        let err = replay(&dir).unwrap_err();
        assert!(
            matches!(err, StorageError::UnknownLogRecord { offset: o, tag: 0x01 } if o == offset),
            "{err}"
        );
        for name in ["a.sdb", "b.sdb", "__tmp-1-1.sdb", WAL_TMP_FILE] {
            assert!(dir.join(name).exists(), "{name} was touched");
        }
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).unwrap(),
            log,
            "log untouched"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_before_any_checkpoint_is_corrupt() {
        let dir = tmp_dir("headless");
        std::fs::write(dir.join("f.sdb"), page(1)).unwrap();
        write_log(&dir, &[commit(&[("g", 1)], &[])]);
        assert!(matches!(replay(&dir), Err(StorageError::Corrupt(_))));
        assert!(dir.join("f.sdb").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_truncates_provisional_allocation() {
        let dir = tmp_dir("trunc");
        // File grew to 3 pages, but only 1 was committed.
        std::fs::write(dir.join("f.sdb"), [page(1), page(2), page(3)].concat()).unwrap();
        write_log(&dir, &[checkpoint(&[]), commit(&[("f", 1)], &[])]);
        let report = replay(&dir).unwrap();
        assert_eq!(report.files_truncated, 1);
        assert_eq!(read_file(&dir, "f").len(), PS);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_commit_deletes_the_file() {
        let dir = tmp_dir("delete");
        std::fs::write(dir.join("gone.sdb"), page(9)).unwrap();
        std::fs::write(dir.join("kept.sdb"), page(8)).unwrap();
        write_log(
            &dir,
            &[
                checkpoint(&[("gone", 1), ("kept", 1)]),
                commit(&[], &["gone"]),
            ],
        );
        let report = replay(&dir).unwrap();
        assert_eq!(report.files_deleted, 1);
        assert!(!dir.join("gone.sdb").exists());
        assert_eq!(read_file(&dir, "kept"), page(8));
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
        let full = frame(&checkpoint(&[("f", 1)]));
        std::fs::write(dir.join(WAL_FILE), &full[..full.len() - 1]).unwrap();
        let report = replay(&dir).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.torn_bytes, full.len() as u64 - 1);
        assert_eq!(report.files_deleted, 0);
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
        wal.append_commit(vec![("f".into(), 1)], vec![]).unwrap();
        wal.sync().unwrap();
        // A log that grew since the caller looked is left alone.
        assert!(!wal.checkpoint(PS, vec![("f".into(), 1)], 0).unwrap());
        assert!(wal
            .checkpoint(PS, vec![("f".into(), 1)], wal.len())
            .unwrap());
        assert!(!dir.join(WAL_TMP_FILE).exists(), "staging file renamed");
        // The swapped-in handle keeps appending to the new log.
        wal.append_commit(vec![("g".into(), 2)], vec!["f".into()])
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (records, torn) = scan_log(&std::fs::read(dir.join(WAL_FILE)).unwrap()).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(
            records,
            [checkpoint(&[("f", 1)]), commit(&[("g", 2)], &["f"])]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interleaved_txns_winner_redone_loser_undone() {
        let dir = tmp_dir("interleaved");
        // Two transactions built files side by side; the winner's commit
        // reached the log, the loser was in flight at the crash.
        for name in ["base", "won", "lost"] {
            std::fs::write(dir.join(format!("{name}.sdb")), page(1)).unwrap();
        }
        write_log(
            &dir,
            &[checkpoint(&[("base", 1)]), commit(&[("won", 1)], &[])],
        );
        let report = replay(&dir).unwrap();
        assert_eq!(report.txns_committed, 1);
        assert_eq!(report.files_deleted, 1);
        assert!(dir.join("won.sdb").exists(), "the winner's file is in");
        assert!(!dir.join("lost.sdb").exists(), "the loser's file is gone");
        assert!(dir.join("base.sdb").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_sync_to_batches_behind_one_fsync() {
        let dir = tmp_dir("group");
        let wal = std::sync::Arc::new(Wal::open(&dir).unwrap());
        let ends: Vec<u64> = (0..4)
            .map(|i| {
                wal.append_commit(vec![(format!("f{i}"), 1)], vec![])
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
    fn catalog_deletes_uncommitted_and_dropped_files() {
        let dir = tmp_dir("catalog");
        for name in ["kept", "new", "dropped"] {
            std::fs::write(dir.join(format!("{name}.sdb")), page(1)).unwrap();
        }
        // "new" was created after the last commit and never committed;
        // "dropped" was committed, then dropped.
        write_log(
            &dir,
            &[
                checkpoint(&[]),
                commit(&[("kept", 1), ("dropped", 1)], &[]),
                commit(&[], &["dropped"]),
            ],
        );
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
        write_log(&dir, &[checkpoint(&[("f", 3)])]);
        replay(&dir).unwrap();
        let bytes = read_file(&dir, "f");
        assert_eq!(bytes.len(), 3 * PS);
        assert_eq!(&bytes[..PS], &page(1)[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
