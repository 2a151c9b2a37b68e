#![warn(missing_docs)]

//! Paged storage manager for saardb — the substitute for the Berkeley DB
//! storage manager the course built on.
//!
//! The paper's milestone 2 requires "efficient secondary storage structures"
//! that fetch "only those nodes into main memory that are currently
//! necessary"; milestone 4 adds clustered and unclustered B+-tree indexes,
//! and the efficiency tests run under a 20 MB memory budget. This crate
//! provides exactly that substrate:
//!
//! * [`env::Env`] — a storage *environment*: a set of named paged files
//!   (on disk or in memory) sharing one buffer pool with a byte budget,
//! * [`append::PageAppender`] — the one way pages are written: each file
//!   is built once, in page order, straight to its backend,
//! * [`buffer`] — the buffer pool, a read cache: clock eviction, pages
//!   shared with readers as immutable handles ([`env::Env::page`]),
//!   hit/miss accounting for the cost model,
//! * [`btree::BTree`] — B+-trees over byte-string keys, bulk-built from
//!   sorted entries, with range cursors and overflow pages for large
//!   values,
//! * [`heap::HeapFile`] — record files written once by a
//!   [`heap::HeapWriter`], for statistics and materialized intermediate
//!   results (the paper allowed engines to "write to disk each
//!   intermediate result"),
//! * [`sort::ExternalSorter`] — run-generation + k-way-merge external sort
//!   (the paper laments BDB made this hard to do "properly by the book";
//!   here it is by the book),
//! * [`temp::TempFile`] — scratch files that free themselves,
//! * [`governor::Governor`] — the per-query resource governor: cooperative
//!   cancellation, wall-clock deadlines and byte-accounted memory budgets
//!   (the honest version of the testbed's time and memory limits).
//!
//! Unlike Berkeley DB, this storage manager supports block-based *writing*
//! as well as reading, so block-oriented operators can be implemented
//! faithfully. Documents are loaded, then queried: a page is written once
//! and never updated in place.
//!
//! ## Key encoding
//!
//! B+-tree keys are ordered lexicographically as byte strings. The
//! [`codec`] module provides order-preserving encodings (big-endian `u64`,
//! length-framed strings) so composite XASR keys sort correctly.

pub mod append;
pub mod backend;
pub mod btree;
pub mod buffer;
pub mod codec;
pub mod env;
pub mod fault;
pub mod governor;
pub mod heap;
pub mod sort;
pub mod temp;
pub mod txn;
pub mod wal;

mod error;
mod node;
mod page;

pub use append::PageAppender;
pub use btree::{BTree, BTreeBuilder, Cursor, Seeker};
pub use buffer::{IoSnapshot, IoStats};
pub use env::{BackendDecorator, Env, EnvConfig, FileId, FilePins};
pub use error::StorageError;
pub use fault::{FaultBackend, FaultState, KillMode};
pub use governor::{Governor, GovernorScope, GovernorSnapshot, MemReservation};
pub use heap::{HeapFile, HeapWriter};
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use sort::{ExternalSorter, SortedRecords};
pub use temp::TempFile;
pub use txn::{LockMode, Txn, TxnScope};
pub use wal::{crc32, Appended, RecoveryReport, Wal};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
