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
//! * [`buffer`] — the buffer pool: clock eviction, pin counts, dirty
//!   write-back, hit/miss accounting for the cost model,
//! * [`btree::BTree`] — B+-trees over byte-string keys with range cursors,
//!   bulk loading, and overflow pages for large values,
//! * [`heap::HeapFile`] — append-only record files for materialized
//!   intermediate results (the paper allowed engines to "write to disk each
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
//! faithfully.
//!
//! ## Key encoding
//!
//! B+-tree keys are ordered lexicographically as byte strings. The
//! [`codec`] module provides order-preserving encodings (big-endian `u64`,
//! length-framed strings) so composite XASR keys sort correctly.

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

pub use btree::{BTree, Cursor, Seeker};
pub use buffer::{IoSnapshot, IoStats};
pub use env::{BackendDecorator, Env, EnvConfig, FileId, FilePins};
pub use error::StorageError;
pub use fault::{FaultBackend, FaultState, KillMode};
pub use governor::{Governor, GovernorScope, GovernorSnapshot, MemReservation};
pub use heap::HeapFile;
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use sort::{ExternalSorter, SortedRecords};
pub use temp::TempFile;
pub use txn::{LockMode, Txn, TxnScope};
pub use wal::{crc32, Appended, RecoveryReport, Wal};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
