//! Write-once page output: how every page of every file is written.
//!
//! A file is built once, in page order, and then only read: a B+-tree or a
//! heap is written through a [`PageAppender`], which extends the file one
//! page at a time straight to its backend through a one-page private
//! buffer. The buffer pool never sees a page before it is complete, so the
//! pool is a pure read cache. The only positional writes patch pages the
//! builder appended earlier: page 0, the meta page, written last, and a
//! B+-tree leaf whose right sibling's page id was not known yet when
//! overflow pages had to follow it.

use crate::backend::Backend;
use crate::env::{Env, FileId};
use crate::error::StorageError;
use crate::page::PageId;
use crate::Result;
use std::sync::Arc;

/// Appends pages to one file. Obtained with [`Env::appender`], which
/// hands one out only for a file the calling thread may write: a new file
/// of the transaction installed on it, a scratch file, or any file of an
/// in-memory environment.
pub struct PageAppender {
    env: Env,
    file: FileId,
    backend: Arc<dyn Backend>,
    /// Scratch files stay writable while the environment is read-only.
    scratch: bool,
    page: Box<[u8]>,
}

impl PageAppender {
    pub(crate) fn new(env: &Env, file: FileId, backend: Arc<dyn Backend>, scratch: bool) -> Self {
        PageAppender {
            page: vec![0u8; env.page_size()].into_boxed_slice(),
            env: env.clone(),
            file,
            backend,
            scratch,
        }
    }

    /// The file being written.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// The environment the file belongs to.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// The id the next [`PageAppender::append`] returns.
    pub fn next_page(&self) -> PageId {
        PageId(self.backend.page_count())
    }

    /// The private page buffer: zeroed, and filled by the caller before
    /// each append or rewrite.
    pub fn page(&mut self) -> &mut [u8] {
        &mut self.page
    }

    /// Appends the buffer as the file's next page and returns its id.
    pub fn append(&mut self) -> Result<PageId> {
        self.check_writable()?;
        let id = self.backend.append_page(&self.page)?;
        self.written();
        Ok(id)
    }

    /// Overwrites `page`, appended earlier by this builder, with the
    /// buffer.
    pub fn rewrite(&mut self, page: PageId) -> Result<()> {
        self.check_writable()?;
        self.backend.write_page(page, &self.page)?;
        self.written();
        Ok(())
    }

    /// Keeps the degraded mode's refusal of durable writes.
    fn check_writable(&self) -> Result<()> {
        if !self.scratch && self.env.is_read_only() {
            return Err(StorageError::ReadOnly);
        }
        Ok(())
    }

    fn written(&mut self) {
        self.page.fill(0);
        self.env.counters().physical_writes.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;

    /// Appended pages reach the backend at once: a reader sees them
    /// through the pool without any flush, and the build itself made no
    /// pool request.
    #[test]
    fn appends_reach_the_backend_without_the_pool() {
        let env = Env::memory_with(EnvConfig {
            page_size: 256,
            pool_bytes: 8 * 256,
        });
        let f = env.create_file("f").unwrap();
        let mut app = env.appender(f).unwrap();
        for i in 0..20u8 {
            assert_eq!(app.next_page(), PageId(u64::from(i)));
            app.page()[0] = i;
            app.append().unwrap();
        }
        app.page()[0] = 99;
        app.rewrite(PageId(0)).unwrap();
        let snap = env.io_stats();
        assert_eq!(snap.requests(), 0, "building never touches the pool");
        assert_eq!(snap.physical_writes, 21);
        assert_eq!(env.page(f, PageId(0)).map(|d| d[0]).unwrap(), 99);
        for i in 1..20u8 {
            let v = env.page(f, PageId(u64::from(i))).unwrap()[0];
            assert_eq!(v, i);
        }
    }
}
