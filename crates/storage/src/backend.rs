//! Physical page stores: an on-disk file or an in-memory vector.
//!
//! Backends are deliberately dumb — fixed-size page reads/writes and
//! append-allocation. Caching, eviction and accounting live in the buffer
//! pool; structure lives in the B+-tree and heap-file layers.

use crate::error::StorageError;
use crate::page::PageId;
use crate::Result;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// A physical store of fixed-size pages.
pub trait Backend: Send + Sync {
    /// Reads page `id` into `buf` (`buf.len()` equals the page size).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` to page `id`.
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Appends a zeroed page and returns its id.
    fn allocate_page(&self) -> Result<PageId>;

    /// Number of pages in the store.
    fn page_count(&self) -> u64;

    /// Flushes to durable storage. Returns `false` when there was nothing
    /// to flush (no write or extension since the last successful sync).
    fn sync(&self) -> Result<bool>;

    /// Path of the underlying file, if any.
    fn path(&self) -> Option<&Path> {
        None
    }
}

/// File-backed page store using positional I/O.
pub struct FileBackend {
    file: File,
    path: PathBuf,
    page_size: usize,
    /// Cached page count; protected so allocation is atomic.
    pages: Mutex<u64>,
    /// Written or extended since the last successful `sync`; set after
    /// each write lands, so a sync that clears it covers the write.
    dirty: AtomicBool,
}

impl FileBackend {
    /// Opens (creating if missing) the file at `path`.
    ///
    /// A length that is not a page multiple is the signature of a crash
    /// mid-extension (`allocate_page`'s `write_all_at` failing part-way):
    /// the torn tail is trimmed to whole pages instead of refusing the
    /// file — the partial page was never handed out, so no data is lost.
    pub fn open(path: &Path, page_size: usize) -> Result<FileBackend> {
        // Never truncate: opening an existing file must preserve its pages.
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let torn = len % page_size as u64;
        if torn != 0 {
            file.set_len(len - torn)?;
        }
        Ok(FileBackend {
            file,
            path: path.to_path_buf(),
            page_size,
            pages: Mutex::new(len / page_size as u64),
            dirty: AtomicBool::new(false),
        })
    }

    fn check_bounds(&self, id: PageId) -> Result<()> {
        let pages = *self.pages.lock();
        if id.0 >= pages {
            return Err(StorageError::PageOutOfBounds { page: id.0, pages });
        }
        Ok(())
    }

    fn check_buf(&self, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(StorageError::PageBufferSize {
                len: buf.len(),
                page_size: self.page_size,
            });
        }
        Ok(())
    }
}

impl Backend for FileBackend {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.check_buf(buf)?;
        self.check_bounds(id)?;
        self.file.read_exact_at(buf, id.offset(self.page_size))?;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.check_buf(buf)?;
        self.check_bounds(id)?;
        self.file.write_all_at(buf, id.offset(self.page_size))?;
        self.dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId> {
        use std::os::unix::fs::FileExt;
        let mut pages = self.pages.lock();
        let id = PageId(*pages);
        let zeros = vec![0u8; self.page_size];
        let extended = self.file.write_all_at(&zeros, id.offset(self.page_size));
        self.dirty.store(true, Ordering::SeqCst);
        if let Err(e) = extended {
            // A failed extension may leave a torn tail; trim it back to the
            // page boundary so the file stays openable (best effort — a
            // crash here is repaired by the round-down in `open`).
            let _ = self.file.set_len(id.offset(self.page_size));
            return Err(e.into());
        }
        *pages += 1;
        Ok(id)
    }

    fn page_count(&self) -> u64 {
        *self.pages.lock()
    }

    fn sync(&self) -> Result<bool> {
        if !self.dirty.swap(false, Ordering::SeqCst) {
            return Ok(false);
        }
        self.file.sync_data()?;
        Ok(true)
    }

    fn path(&self) -> Option<&Path> {
        Some(&self.path)
    }
}

/// In-memory page store (testing, and the milestone-1 engine's scratch
/// space).
pub struct MemBackend {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
}

impl MemBackend {
    /// Creates an empty in-memory store.
    pub fn new(page_size: usize) -> MemBackend {
        MemBackend {
            page_size,
            pages: Mutex::new(Vec::new()),
        }
    }
}

impl MemBackend {
    fn check_buf(&self, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(StorageError::PageBufferSize {
                len: buf.len(),
                page_size: self.page_size,
            });
        }
        Ok(())
    }
}

impl Backend for MemBackend {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.check_buf(buf)?;
        let pages = self.pages.lock();
        let page = pages
            .get(id.0 as usize)
            .ok_or(StorageError::PageOutOfBounds {
                page: id.0,
                pages: pages.len() as u64,
            })?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.check_buf(buf)?;
        let mut pages = self.pages.lock();
        let count = pages.len() as u64;
        let page = pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageOutOfBounds {
                page: id.0,
                pages: count,
            })?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        let id = PageId(pages.len() as u64);
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(id)
    }

    fn page_count(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn sync(&self) -> Result<bool> {
        // Memory is as durable as it will ever be: every sync "flushes".
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn Backend, page_size: usize) {
        assert_eq!(backend.page_count(), 0);
        let p0 = backend.allocate_page().unwrap();
        let p1 = backend.allocate_page().unwrap();
        assert_eq!((p0, p1), (PageId(0), PageId(1)));
        assert_eq!(backend.page_count(), 2);

        let mut buf = vec![0u8; page_size];
        buf[0] = 0xAB;
        buf[page_size - 1] = 0xCD;
        backend.write_page(p1, &buf).unwrap();

        let mut read = vec![0u8; page_size];
        backend.read_page(p1, &mut read).unwrap();
        assert_eq!(read, buf);

        backend.read_page(p0, &mut read).unwrap();
        assert!(read.iter().all(|&b| b == 0), "fresh pages are zeroed");

        assert!(matches!(
            backend.read_page(PageId(9), &mut read),
            Err(StorageError::PageOutOfBounds { page: 9, pages: 2 })
        ));

        // A buffer of the wrong size is a typed error, not a torn file or
        // a panic — and the page keeps its old content.
        let short = vec![0xEEu8; page_size / 2];
        assert!(matches!(
            backend.write_page(p1, &short),
            Err(StorageError::PageBufferSize { .. })
        ));
        let mut long = vec![0xEEu8; page_size + 1];
        assert!(matches!(
            backend.read_page(p1, &mut long),
            Err(StorageError::PageBufferSize { .. })
        ));
        backend.read_page(p1, &mut read).unwrap();
        assert_eq!(read, buf, "rejected writes must not change the page");

        backend.sync().unwrap();
    }

    #[test]
    fn file_backend_syncs_only_when_dirty() {
        let dir = std::env::temp_dir().join(format!("saardb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.sdb");
        let _ = std::fs::remove_file(&path);
        let b = FileBackend::open(&path, 512).unwrap();
        assert!(!b.sync().unwrap(), "a fresh file has nothing to sync");
        let p = b.allocate_page().unwrap();
        assert!(b.sync().unwrap(), "an extension makes the file dirty");
        assert!(!b.sync().unwrap(), "clean again after a sync");
        b.write_page(p, &[7u8; 512]).unwrap();
        assert!(b.sync().unwrap(), "a write makes the file dirty");
        assert!(!b.sync().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_backend_roundtrip() {
        let b = MemBackend::new(512);
        exercise(&b, 512);
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("saardb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("backend-roundtrip.sdb");
        let _ = std::fs::remove_file(&path);
        {
            let b = FileBackend::open(&path, 512).unwrap();
            exercise(&b, 512);
        }
        // Reopen: data persists.
        {
            let b = FileBackend::open(&path, 512).unwrap();
            assert_eq!(b.page_count(), 2);
            let mut read = vec![0u8; 512];
            b.read_page(PageId(1), &mut read).unwrap();
            assert_eq!(read[0], 0xAB);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_trims_torn_tail_on_open() {
        let dir = std::env::temp_dir().join(format!("saardb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.sdb");
        // One whole page plus a torn 100-byte tail from a crashed
        // extension: the page survives, the tail is trimmed.
        let mut bytes = vec![0xABu8; 512];
        bytes.extend_from_slice(&[0u8; 100]);
        std::fs::write(&path, &bytes).unwrap();
        {
            let b = FileBackend::open(&path, 512).unwrap();
            assert_eq!(b.page_count(), 1);
            let mut read = vec![0u8; 512];
            b.read_page(PageId(0), &mut read).unwrap();
            assert_eq!(read[0], 0xAB);
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 512);
        std::fs::remove_file(&path).unwrap();
    }
}
