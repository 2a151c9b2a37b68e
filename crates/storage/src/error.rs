use std::fmt;
use std::sync::Arc;

/// Errors raised by the storage manager.
#[derive(Debug, Clone)]
pub enum StorageError {
    /// An operating-system I/O error. Wrapped in `Arc` so the error stays
    /// cloneable (operators propagate errors through iterator chains).
    Io(Arc<std::io::Error>),
    /// A page id beyond the end of its file.
    PageOutOfBounds {
        /// The requested page.
        page: u64,
        /// Pages in the file.
        pages: u64,
    },
    /// A key larger than the B+-tree's maximum (page-size dependent).
    KeyTooLarge {
        /// The offending key length.
        len: usize,
        /// The page-size-derived maximum.
        max: usize,
    },
    /// A record larger than a heap-file page can hold.
    RecordTooLarge {
        /// The offending record length.
        len: usize,
        /// The page-payload maximum.
        max: usize,
    },
    /// On-disk bytes that violate an invariant (bad magic, corrupt node).
    Corrupt(String),
    /// Named file does not exist in the environment.
    NoSuchFile(String),
    /// A file with this name already exists.
    FileExists(String),
    /// A page read/write was handed a buffer whose length is not the page
    /// size (a short buffer would tear the file or panic).
    PageBufferSize {
        /// The offending buffer length.
        len: usize,
        /// The backend's page size.
        page_size: usize,
    },
    /// An error injected by a [`crate::fault::FaultBackend`] (simulated
    /// crash or transient I/O failure) — test harnesses only.
    FaultInjected(String),
    /// The query's governor token was cancelled by its supervisor (the
    /// testbed runner, a server admin, a tripped fault injection).
    Cancelled,
    /// The query ran past its governor's wall-clock deadline.
    DeadlineExceeded,
    /// An accounted allocation would push the query past its governor's
    /// memory budget and no graceful degradation (spill) was possible.
    MemoryExceeded {
        /// Accounted bytes the allocation would have reached.
        used: usize,
        /// The configured budget in bytes.
        budget: usize,
    },
    /// The transaction was chosen as the deadlock victim: its lock request
    /// closed a cycle in the wait-for graph. The transaction has been
    /// rolled back; retry it from `begin` (like the governor's
    /// [`StorageError::Cancelled`], this is a retryable error, not a bug).
    Deadlock {
        /// The aborted transaction's id.
        txn: u64,
    },
    /// An operation on a transaction that is no longer active (already
    /// committed, rolled back, or aborted as a deadlock victim).
    TxnInactive {
        /// The transaction's id.
        txn: u64,
    },
    /// A write-ahead-log append or sync failed because the volume is out
    /// of space (real `ENOSPC` or the injected equivalent). The operation
    /// that needed the log entry failed cleanly; the environment flips
    /// into read-only degraded mode until a checkpoint reclaims space.
    NoSpace,
    /// The environment is in read-only degraded mode (entered on
    /// [`StorageError::NoSpace`]): queries keep running, writes are
    /// refused until [`crate::Env::try_exit_read_only`] succeeds.
    ReadOnly,
    /// A durable file created or removed on a logged (on-disk) environment
    /// outside a transaction: every durable change commits through
    /// [`crate::Txn::commit`], so install one first.
    NoTxn,
    /// A page write to a file of a logged environment that is neither
    /// scratch nor a new file of the transaction installed on the calling
    /// thread. Committed files are immutable: build a new file in a
    /// transaction instead.
    Immutable(String),
    /// A log record whose checksum holds but whose kind this build does not
    /// know — a log written by another format. Recovery refuses it rather
    /// than cut the log there and delete what the lost records listed.
    UnknownLogRecord {
        /// Byte offset of the record in the log.
        offset: u64,
        /// Its kind tag.
        tag: u8,
    },
}

impl StorageError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        StorageError::Corrupt(msg.into())
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(Arc::new(e))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::PageOutOfBounds { page, pages } => {
                write!(f, "page {page} out of bounds (file has {pages} pages)")
            }
            StorageError::KeyTooLarge { len, max } => {
                write!(f, "key of {len} bytes exceeds maximum {max}")
            }
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds maximum {max}")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StorageError::NoSuchFile(name) => write!(f, "no such file: {name}"),
            StorageError::FileExists(name) => write!(f, "file already exists: {name}"),
            StorageError::PageBufferSize { len, page_size } => {
                write!(
                    f,
                    "page buffer of {len} bytes does not match page size {page_size}"
                )
            }
            StorageError::FaultInjected(op) => write!(f, "injected fault: {op}"),
            StorageError::Cancelled => write!(f, "query cancelled"),
            StorageError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            StorageError::MemoryExceeded { used, budget } => {
                write!(
                    f,
                    "query memory budget exceeded: {used} bytes needed, {budget} allowed"
                )
            }
            StorageError::Deadlock { txn } => {
                write!(f, "transaction {txn} aborted as deadlock victim (retry)")
            }
            StorageError::TxnInactive { txn } => {
                write!(f, "transaction {txn} is no longer active")
            }
            StorageError::NoSpace => {
                write!(f, "write-ahead log out of disk space")
            }
            StorageError::ReadOnly => {
                write!(f, "environment is in read-only degraded mode (disk full)")
            }
            StorageError::NoTxn => {
                write!(f, "durable write outside a transaction")
            }
            StorageError::Immutable(name) => {
                write!(
                    f,
                    "file {name} is not a new file of this transaction and cannot be written"
                )
            }
            StorageError::UnknownLogRecord { offset, tag } => write!(
                f,
                "write-ahead log record at byte {offset} has unknown kind {tag:#04x} \
                 (a log from another format)"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}
