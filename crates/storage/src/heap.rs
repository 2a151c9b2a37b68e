//! Heap files of variable-length records, written once by a
//! [`HeapWriter`] and then read as a [`HeapFile`].
//!
//! Used for document statistics, materialized intermediate results
//! (milestone 3 allowed engines to spill every intermediate) and
//! external-sort runs. Records are opaque byte strings; page layout is
//!
//! ```text
//! page 0 (meta):  magic "SAHP" | record_count u64
//! page ≥ 1:       nrecords u16 | free_off u16 | records: (len u32 | bytes)*
//! ```

use crate::append::PageAppender;
use crate::codec;
use crate::env::{Env, FileId};
use crate::error::StorageError;
use crate::page::PageId;
use crate::temp::TempFile;
use crate::Result;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SAHP";
const META_COUNT_OFF: usize = 4;
const DATA_HEADER: usize = 4; // nrecords u16 | free_off u16
const LEN_PREFIX: usize = 4;

/// Writes a heap file once, front to back: records fill a page in the
/// appender's buffer, each full page is appended, and [`HeapWriter::finish`]
/// appends the last one and patches the record count into the meta page.
pub struct HeapWriter {
    app: PageAppender,
    temp: Option<TempFile>,
    count: u64,
    /// The buffered page holds records (it is appended when the next
    /// record does not fit, or at finish).
    tail: bool,
}

impl HeapWriter {
    /// Starts a heap in a fresh named file.
    pub fn create(env: &Env, name: &str) -> Result<HeapWriter> {
        Self::init(env.appender(env.create_file(name)?)?, None)
    }

    /// Starts a heap in a self-deleting scratch file.
    pub fn temp(env: &Env) -> Result<HeapWriter> {
        let tmp = TempFile::new(env)?;
        Self::init(env.appender(tmp.id())?, Some(tmp))
    }

    fn init(mut app: PageAppender, temp: Option<TempFile>) -> Result<HeapWriter> {
        app.append()?; // the meta page, patched at finish
        Ok(HeapWriter {
            app,
            temp,
            count: 0,
            tail: false,
        })
    }

    /// Largest record this heap can store.
    pub fn max_record(&self) -> usize {
        self.app.env().page_size() - DATA_HEADER - LEN_PREFIX
    }

    /// Appends a record.
    pub fn append(&mut self, record: &[u8]) -> Result<()> {
        if record.len() > self.max_record() {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: self.max_record(),
            });
        }
        let page_size = self.app.env().page_size();
        if self.tail && free_off(self.app.page()) as usize + LEN_PREFIX + record.len() > page_size {
            self.app.append()?;
            self.tail = false;
        }
        let data = self.app.page();
        if !self.tail {
            set_free_off(data, DATA_HEADER as u16);
            self.tail = true;
        }
        let n = nrecords(data);
        let off = free_off(data) as usize;
        data[off..off + 4].copy_from_slice(&(record.len() as u32).to_le_bytes());
        data[off + 4..off + 4 + record.len()].copy_from_slice(record);
        set_nrecords(data, n + 1);
        set_free_off(data, (off + 4 + record.len()) as u16);
        self.count += 1;
        Ok(())
    }

    /// Writes the last page and the meta page; the heap is read-only from
    /// here on.
    pub fn finish(mut self) -> Result<HeapFile> {
        if self.tail {
            self.app.append()?;
        }
        let meta = self.app.page();
        meta[..4].copy_from_slice(MAGIC);
        meta[META_COUNT_OFF..META_COUNT_OFF + 8].copy_from_slice(&self.count.to_le_bytes());
        self.app.rewrite(PageId(0))?;
        Ok(HeapFile {
            env: self.app.env().clone(),
            file: self.app.file_id(),
            _temp: self.temp,
            count: self.count,
        })
    }
}

/// A finished, read-only record file. See module docs.
pub struct HeapFile {
    env: Env,
    file: FileId,
    /// Keeps a scratch file alive for the lifetime of the heap.
    _temp: Option<TempFile>,
    count: u64,
}

impl HeapFile {
    /// Opens an existing heap file.
    pub fn open(env: &Env, name: &str) -> Result<HeapFile> {
        Self::open_in(env, env.open_file(name)?)
    }

    /// Opens the existing heap in an open file (see [`Env::pin_files`]).
    pub fn open_in(env: &Env, file: FileId) -> Result<HeapFile> {
        let data = env.page(file, PageId(0))?;
        if &data[..4] != MAGIC {
            return Err(StorageError::corrupt(format!("{file}: bad heap magic")));
        }
        let count = &data[META_COUNT_OFF..META_COUNT_OFF + 8];
        Ok(HeapFile {
            env: env.clone(),
            file,
            _temp: None,
            count: u64::from_le_bytes(count.try_into().expect("an 8-byte field")),
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

    /// True when the heap holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates over all records in append order, holding one page at a
    /// time.
    pub fn scan(&self) -> Scan<&HeapFile> {
        Scan::new(self)
    }

    /// Converts the heap into an owning streaming scan, which keeps a
    /// scratch file alive until it drops (the external sorter's merge
    /// ties run lifetimes to it, and a materialized intermediate rewinds
    /// it to re-read).
    pub fn into_scan(self) -> OwnedScan {
        Scan::new(self)
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

/// Streaming record iterator over a [`HeapFile`], borrowed or owned. It
/// holds the page it reads (see [`Env::page`]) and the offset of its next
/// record there.
pub struct Scan<H> {
    heap: H,
    /// The next page to read (page 0 is the meta page).
    next_page: u64,
    /// The page being read, the offset of its next record, and how many
    /// records are left on it.
    at: Option<(Arc<[u8]>, usize, u16)>,
    done: bool,
}

/// A [`Scan`] that owns its heap.
pub type OwnedScan = Scan<HeapFile>;

impl<H: std::borrow::Borrow<HeapFile>> Scan<H> {
    fn new(heap: H) -> Scan<H> {
        Scan {
            heap,
            next_page: 1,
            at: None,
            done: false,
        }
    }

    /// Starts the scan over from the first record.
    pub fn rewind(&mut self) {
        (self.next_page, self.at, self.done) = (1, None, false);
    }

    /// The next record, borrowed from the page the scan holds; `None` at
    /// the end, where the scan lets go of its last page.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>> {
        if !self.fill()? {
            return Ok(None);
        }
        let (page, pos, left) = self.at.as_mut().expect("a page with records left");
        *left -= 1;
        Ok(Some(codec::get_bytes(page, pos)))
    }

    /// Holds the page of the next record, reading pages as needed; false
    /// at the end.
    pub(crate) fn fill(&mut self) -> Result<bool> {
        while self.at.as_ref().map_or(true, |&(_, _, left)| left == 0) {
            self.at = None;
            let heap = self.heap.borrow();
            if self.next_page >= heap.env.page_count(heap.file)? {
                return Ok(false);
            }
            let page = heap.env.page(heap.file, PageId(self.next_page))?;
            self.next_page += 1;
            let left = nrecords(&page);
            self.at = Some((page, DATA_HEADER, left));
        }
        Ok(true)
    }

    /// The next record without consuming it, once [`Scan::fill`] found it.
    pub(crate) fn peek(&self) -> Option<&[u8]> {
        let (page, pos, left) = self.at.as_ref()?;
        let mut pos = *pos;
        (*left > 0).then(|| codec::get_bytes(page, &mut pos))
    }
}

impl<H: std::borrow::Borrow<HeapFile>> Iterator for Scan<H> {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let next = self.next_record().map(|r| r.map(<[u8]>::to_vec));
        self.done = !matches!(next, Ok(Some(_)));
        next.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;

    #[test]
    fn append_scan_roundtrip() {
        let env = Env::memory();
        let mut writer = HeapWriter::create(&env, "h").unwrap();
        let records: Vec<Vec<u8>> = (0..100u32)
            .map(|i| i.to_le_bytes().repeat(1 + (i % 5) as usize))
            .collect();
        for r in &records {
            writer.append(r).unwrap();
        }
        let heap = writer.finish().unwrap();
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
        let mut writer = HeapWriter::create(&env, "h").unwrap();
        let record = vec![7u8; 100];
        for _ in 0..50 {
            writer.append(&record).unwrap();
        }
        let heap = writer.finish().unwrap();
        // Two records per data page, plus the meta page; each page is
        // written once, the meta page twice.
        assert_eq!(env.page_count(heap.file_id()).unwrap(), 26);
        assert_eq!(env.io_stats().physical_writes, 27);
        assert_eq!(heap.scan().count(), 50);
    }

    #[test]
    fn oversized_record_rejected() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 8 * 256,
        });
        let mut heap = HeapWriter::create(&env, "h").unwrap();
        let err = heap.append(&vec![0u8; 300]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn empty_record_ok() {
        let env = Env::memory();
        let mut writer = HeapWriter::create(&env, "h").unwrap();
        writer.append(b"").unwrap();
        writer.append(b"x").unwrap();
        let heap = writer.finish().unwrap();
        let recs: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(recs, vec![Vec::<u8>::new(), b"x".to_vec()]);
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let env = Env::memory();
        let heap = HeapWriter::create(&env, "h").unwrap().finish().unwrap();
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
                let mut heap = HeapWriter::create(&env, "records")?;
                heap.append(b"alpha")?;
                heap.append(b"beta")?;
                heap.finish().map(drop)
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
            let mut writer = HeapWriter::temp(&env).unwrap();
            writer.append(b"gone").unwrap();
            let heap = writer.finish().unwrap();
            id = heap.file_id();
        }
        assert!(env.page_count(id).is_err());
    }

    #[test]
    fn open_rejects_non_heap() {
        let env = Env::memory();
        let f = env.create_file("junk").unwrap();
        env.appender(f).unwrap().append().unwrap();
        assert!(matches!(
            HeapFile::open(&env, "junk"),
            Err(StorageError::Corrupt(_))
        ));
    }
}
