//! Append-only heap files of variable-length records.
//!
//! Used for materialized intermediate results (milestone 3 allowed engines
//! to spill every intermediate) and for external-sort runs. Records are
//! opaque byte strings; page layout is
//!
//! ```text
//! page 0 (meta):  magic "SAHP" | record_count u64
//! page ≥ 1:       nrecords u16 | free_off u16 | records: (len u32 | bytes)*
//! ```

use crate::codec;
use crate::env::{Env, FileId};
use crate::error::StorageError;
use crate::page::PageId;
use crate::temp::TempFile;
use crate::Result;

const MAGIC: &[u8; 4] = b"SAHP";
const META_COUNT_OFF: usize = 4;
const DATA_HEADER: usize = 4; // nrecords u16 | free_off u16
const LEN_PREFIX: usize = 4;

/// An append-only record file. See module docs.
pub struct HeapFile {
    env: Env,
    file: FileId,
    /// Keeps a scratch file alive for the lifetime of the heap.
    _temp: Option<TempFile>,
    /// Cached record count (mirrored to the meta page).
    count: u64,
    /// Page currently being filled.
    tail: Option<PageId>,
}

impl HeapFile {
    /// Creates a heap in a fresh named file.
    pub fn create(env: &Env, name: &str) -> Result<HeapFile> {
        let file = env.create_file(name)?;
        Self::init(env.clone(), file, None)
    }

    /// Creates a heap in a self-deleting scratch file.
    pub fn temp(env: &Env) -> Result<HeapFile> {
        let tmp = TempFile::new(env)?;
        let file = tmp.id();
        Self::init(env.clone(), file, Some(tmp))
    }

    /// Creates a heap in an existing, empty file.
    pub fn create_in(env: &Env, file: FileId) -> Result<HeapFile> {
        Self::init(env.clone(), file, None)
    }

    fn init(env: Env, file: FileId, temp: Option<TempFile>) -> Result<HeapFile> {
        let meta = env.allocate_page(file)?;
        debug_assert_eq!(meta, PageId(0));
        env.with_page_mut(file, meta, |data| {
            data[..4].copy_from_slice(MAGIC);
            data[META_COUNT_OFF..META_COUNT_OFF + 8].copy_from_slice(&0u64.to_le_bytes());
        })?;
        Ok(HeapFile {
            env,
            file,
            _temp: temp,
            count: 0,
            tail: None,
        })
    }

    /// Opens an existing heap file.
    pub fn open(env: &Env, name: &str) -> Result<HeapFile> {
        Self::open_in(env, env.open_file(name)?)
    }

    /// Opens the existing heap in an open file (see [`Env::pin_files`]).
    pub fn open_in(env: &Env, file: FileId) -> Result<HeapFile> {
        let count = env.with_page(file, PageId(0), |data| {
            if &data[..4] != MAGIC {
                return Err(StorageError::corrupt(format!("{file}: bad heap magic")));
            }
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&data[META_COUNT_OFF..META_COUNT_OFF + 8]);
            Ok(u64::from_le_bytes(bytes))
        })??;
        let pages = env.page_count(file)?;
        let tail = if pages > 1 {
            Some(PageId(pages - 1))
        } else {
            None
        };
        Ok(HeapFile {
            env: env.clone(),
            file,
            _temp: None,
            count,
            tail,
        })
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest record this heap can store.
    pub fn max_record(&self) -> usize {
        self.env.page_size() - DATA_HEADER - LEN_PREFIX
    }

    /// Appends a record.
    pub fn append(&mut self, record: &[u8]) -> Result<()> {
        let needed = LEN_PREFIX + record.len();
        if record.len() > self.max_record() {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: self.max_record(),
            });
        }
        let page_size = self.env.page_size();
        let page = match self.tail {
            Some(p) => {
                let free = self.env.with_page(self.file, p, free_off)?;
                if free as usize + needed <= page_size {
                    p
                } else {
                    let np = self.env.allocate_page(self.file)?;
                    self.init_data_page(np)?;
                    self.tail = Some(np);
                    np
                }
            }
            None => {
                let np = self.env.allocate_page(self.file)?;
                self.init_data_page(np)?;
                self.tail = Some(np);
                np
            }
        };
        self.env.with_page_mut(self.file, page, |data| {
            let n = nrecords(data);
            let off = free_off(data) as usize;
            data[off..off + 4].copy_from_slice(&(record.len() as u32).to_le_bytes());
            data[off + 4..off + 4 + record.len()].copy_from_slice(record);
            set_nrecords(data, n + 1);
            set_free_off(data, (off + 4 + record.len()) as u16);
        })?;
        self.count += 1;
        self.env.with_page_mut(self.file, PageId(0), |data| {
            data[META_COUNT_OFF..META_COUNT_OFF + 8].copy_from_slice(&self.count.to_le_bytes());
        })?;
        Ok(())
    }

    fn init_data_page(&self, page: PageId) -> Result<()> {
        self.env.with_page_mut(self.file, page, |data| {
            set_nrecords(data, 0);
            set_free_off(data, DATA_HEADER as u16);
        })
    }

    /// Iterates over all records in append order. Each `next()` clones the
    /// record bytes; a full page of records is decoded per page fetch.
    pub fn scan(&self) -> Scan<'_> {
        Scan {
            heap: self,
            next_page: 1,
            buffered: Vec::new(),
            buffer_pos: 0,
            error: None,
        }
    }

    /// Number of data pages (for explicit page-at-a-time iteration by
    /// operators that must own their cursor state).
    pub fn data_pages(&self) -> Result<u64> {
        Ok(self.env.page_count(self.file)?.saturating_sub(1))
    }

    /// All records of data page `index` (0-based over data pages). Together
    /// with [`Self::data_pages`] this lets a caller iterate with state it
    /// owns — the re-openable scans that nested-loops inners need.
    pub fn page_records(&self, index: u64) -> Result<Vec<Vec<u8>>> {
        let page = PageId(index + 1);
        self.env.with_page(self.file, page, |data| {
            let n = nrecords(data) as usize;
            let mut out = Vec::with_capacity(n);
            let mut pos = DATA_HEADER;
            for _ in 0..n {
                out.push(codec::get_bytes(data, &mut pos).to_vec());
            }
            out
        })
    }
}

fn nrecords(data: &[u8]) -> u16 {
    u16::from_le_bytes([data[0], data[1]])
}

fn set_nrecords(data: &mut [u8], n: u16) {
    data[0..2].copy_from_slice(&n.to_le_bytes());
}

fn free_off(data: &[u8]) -> u16 {
    u16::from_le_bytes([data[2], data[3]])
}

fn set_free_off(data: &mut [u8], off: u16) {
    data[2..4].copy_from_slice(&off.to_le_bytes());
}

/// Streaming record iterator over a [`HeapFile`].
pub struct Scan<'a> {
    heap: &'a HeapFile,
    next_page: u64,
    buffered: Vec<Vec<u8>>,
    buffer_pos: usize,
    error: Option<StorageError>,
}

impl<'a> Scan<'a> {
    fn fill(&mut self) -> Result<bool> {
        let pages = self.heap.env.page_count(self.heap.file)?;
        while self.next_page < pages {
            let page = PageId(self.next_page);
            self.next_page += 1;
            let records = self.heap.env.with_page(self.heap.file, page, |data| {
                let n = nrecords(data) as usize;
                let mut out = Vec::with_capacity(n);
                let mut pos = DATA_HEADER;
                for _ in 0..n {
                    out.push(codec::get_bytes(data, &mut pos).to_vec());
                }
                out
            })?;
            if !records.is_empty() {
                self.buffered = records;
                self.buffer_pos = 0;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl<'a> Iterator for Scan<'a> {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.error.is_some() {
            return None;
        }
        if self.buffer_pos >= self.buffered.len() {
            match self.fill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.error = Some(e.clone());
                    return Some(Err(e));
                }
            }
        }
        let rec = std::mem::take(&mut self.buffered[self.buffer_pos]);
        self.buffer_pos += 1;
        Some(Ok(rec))
    }
}

/// Owning record iterator: consumes the [`HeapFile`] (keeping any scratch
/// file alive) and streams records one page at a time. Used by the external
/// sorter's merge phase, where run lifetimes must be tied to the iterator.
pub struct OwnedScan {
    heap: HeapFile,
    next_page: u64,
    buffered: Vec<Vec<u8>>,
    buffer_pos: usize,
    done: bool,
}

impl HeapFile {
    /// Converts the heap into an owning streaming scan.
    pub fn into_scan(self) -> OwnedScan {
        OwnedScan {
            heap: self,
            next_page: 1,
            buffered: Vec::new(),
            buffer_pos: 0,
            done: false,
        }
    }
}

impl OwnedScan {
    fn fill(&mut self) -> Result<bool> {
        let pages = self.heap.env.page_count(self.heap.file)?;
        while self.next_page < pages {
            let page = PageId(self.next_page);
            self.next_page += 1;
            let records = self.heap.env.with_page(self.heap.file, page, |data| {
                let n = nrecords(data) as usize;
                let mut out = Vec::with_capacity(n);
                let mut pos = DATA_HEADER;
                for _ in 0..n {
                    out.push(codec::get_bytes(data, &mut pos).to_vec());
                }
                out
            })?;
            if !records.is_empty() {
                self.buffered = records;
                self.buffer_pos = 0;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Iterator for OwnedScan {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.buffer_pos >= self.buffered.len() {
            match self.fill() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        let rec = std::mem::take(&mut self.buffered[self.buffer_pos]);
        self.buffer_pos += 1;
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;

    #[test]
    fn append_scan_roundtrip() {
        let env = Env::memory();
        let mut heap = HeapFile::create(&env, "h").unwrap();
        let records: Vec<Vec<u8>> = (0..100u32)
            .map(|i| i.to_le_bytes().repeat(1 + (i % 5) as usize))
            .collect();
        for r in &records {
            heap.append(r).unwrap();
        }
        assert_eq!(heap.len(), 100);
        let scanned: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned, records);
    }

    #[test]
    fn spans_many_pages() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 8 * 256,
        });
        let mut heap = HeapFile::create(&env, "h").unwrap();
        let record = vec![7u8; 100];
        for _ in 0..50 {
            heap.append(&record).unwrap();
        }
        assert!(env.page_count(heap.file_id()).unwrap() > 10);
        assert_eq!(heap.scan().count(), 50);
    }

    #[test]
    fn oversized_record_rejected() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 8 * 256,
        });
        let mut heap = HeapFile::create(&env, "h").unwrap();
        let err = heap.append(&vec![0u8; 300]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn empty_record_ok() {
        let env = Env::memory();
        let mut heap = HeapFile::create(&env, "h").unwrap();
        heap.append(b"").unwrap();
        heap.append(b"x").unwrap();
        let recs: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(recs, vec![Vec::<u8>::new(), b"x".to_vec()]);
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let env = Env::memory();
        let heap = HeapFile::create(&env, "h").unwrap();
        assert!(heap.is_empty());
        assert_eq!(heap.scan().count(), 0);
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("saardb-heap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
            env.autocommit(|| {
                let mut heap = HeapFile::create(&env, "records")?;
                heap.append(b"alpha")?;
                heap.append(b"beta")?;
                Ok::<_, StorageError>(())
            })
            .unwrap();
        }
        {
            let env = Env::open_dir(&dir, EnvConfig::default()).unwrap();
            let heap = HeapFile::open(&env, "records").unwrap();
            assert_eq!(heap.len(), 2);
            let recs: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap()).collect();
            assert_eq!(recs, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_heap_self_deletes() {
        let env = Env::memory();
        let id;
        {
            let mut heap = HeapFile::temp(&env).unwrap();
            heap.append(b"gone").unwrap();
            id = heap.file_id();
        }
        assert!(env.page_count(id).is_err());
    }

    #[test]
    fn open_rejects_non_heap() {
        let env = Env::memory();
        let f = env.create_file("junk").unwrap();
        env.allocate_page(f).unwrap();
        assert!(matches!(
            HeapFile::open(&env, "junk"),
            Err(StorageError::Corrupt(_))
        ));
    }
}
