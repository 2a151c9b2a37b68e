//! Self-cleaning scratch files for materialized intermediates and sort runs.

use crate::env::{Env, FileId};
use crate::Result;

/// A scratch file removed from the environment when dropped.
///
/// The milestone-3 engines "write to disk each intermediate result, and
/// re-read it whenever necessary"; `TempFile` is the mechanism, guaranteeing
/// the scratch space is reclaimed even on error paths.
pub struct TempFile {
    env: Env,
    file: Option<FileId>,
}

impl TempFile {
    /// Allocates a fresh scratch file in `env`.
    pub fn new(env: &Env) -> Result<TempFile> {
        let file = env.create_temp_file()?;
        Ok(TempFile {
            env: env.clone(),
            file: Some(file),
        })
    }

    /// The underlying file id.
    pub fn id(&self) -> FileId {
        self.file.expect("TempFile used after into_inner")
    }

    /// Releases ownership without deleting (the caller takes responsibility).
    pub fn into_inner(mut self) -> FileId {
        self.file.take().expect("TempFile already consumed")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if let Some(file) = self.file.take() {
            // Best-effort: a failed delete leaks a scratch file, which the
            // next environment over the same directory will ignore.
            let _ = self.env.remove_file(file);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_removes_file() {
        let env = Env::memory();
        let id;
        {
            let tmp = TempFile::new(&env).unwrap();
            id = tmp.id();
            env.appender(id).unwrap().append().unwrap();
        }
        assert!(env.page_count(id).is_err(), "file should be gone");
    }

    #[test]
    fn into_inner_keeps_file() {
        let env = Env::memory();
        let tmp = TempFile::new(&env).unwrap();
        let id = tmp.into_inner();
        env.appender(id).unwrap().append().unwrap();
        assert_eq!(env.page_count(id).unwrap(), 1);
    }
}
