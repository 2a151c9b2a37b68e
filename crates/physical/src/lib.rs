#![warn(missing_docs)]

//! Physical operators for saardb — the milestone 3/4 execution layer.
//!
//! Operators follow the volcano model with one calling convention:
//! `open` / `next_batch` / `close` ([`Operator`]), exchanging
//! [`RowBatch`]es of up to `max_rows` rows of XASR tuples. A consumer that
//! may stop early asks for few rows and no operator below it pulls more
//! than it needs, so the one ABI serves bulk scans and lazy exists checks
//! alike. The operator set is exactly what the paper's milestones call for:
//!
//! * scans: full clustered scan, and the milestone-4 *index-based
//!   selection* access paths ([`Probe`]) — children by parent index,
//!   descendants by clustered-interval or label-interval scan, label
//!   lookups, point lookups,
//! * selection ([`ops::FilterOp`]) with XQ's strict text-comparison
//!   semantics,
//! * order-aware projection with one-pass duplicate elimination
//!   ([`ops::ProjectOp`]) — approach (c) of the ordering discussion,
//! * one nested-loops join ([`ops::JoinOp`]) whose parameters
//!   ([`ops::JoinInner`], `outer`, predicates) give the order-preserving
//!   nested-loops join, the milestone-4 *index nested-loops* join, the
//!   non-order-preserving block-nested-loops join for sort-based plans
//!   and ablations, and the left-outer forms of each,
//! * external sort ([`ops::SortOp`]) — approach (a),
//! * materialization to scratch files ([`ops::MaterializeOp`]) — the paper
//!   allowed milestone-3 engines to "write to disk each intermediate
//!   result, and re-read it whenever necessary".
//!
//! Rows are vectors of full [`xmldb_xasr::NodeTuple`]s (not just
//! in-values): this *is* the paper's vartuple-out extension — every bound
//! variable carries its `out` value (and the rest of its tuple), so
//! descendant steps on outer variables need no extra join.

pub mod analyze;
pub mod batch;
pub mod exec;
pub mod ops;
pub mod pred;
pub mod row;

pub use analyze::{AnalyzedOperator, OpMetrics, SharedOpMetrics};
pub use batch::{RowBatch, BATCH_ROWS};
pub use exec::{execute_all, Bindings, ExecContext, Operator};
pub use ops::Probe;
pub use pred::{PhysOperand, PhysPred};
pub use row::{LastKey, Row};

/// Errors during physical execution.
#[derive(Debug, Clone)]
pub enum Error {
    /// Underlying storage failure.
    Storage(xmldb_storage::StorageError),
    /// XASR decode failure.
    Xasr(String),
    /// XQ `=` evaluated on a node that is not a text node — the runtime
    /// error the paper allowed engines to raise.
    NonTextComparison {
        /// The offending node's kind.
        kind: xmldb_xasr::NodeType,
        /// Its label/content, for the error message.
        value: Option<String>,
    },
    /// A plan referenced a variable with no binding (plan construction bug).
    UnboundVariable(String),
}

impl From<xmldb_storage::StorageError> for Error {
    fn from(e: xmldb_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<xmldb_xasr::Error> for Error {
    fn from(e: xmldb_xasr::Error) -> Self {
        match e {
            xmldb_xasr::Error::Storage(s) => Error::Storage(s),
            other => Error::Xasr(other.to_string()),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage: {e}"),
            Error::Xasr(e) => write!(f, "xasr: {e}"),
            Error::NonTextComparison { kind, value } => write!(
                f,
                "comparison on non-text node ({kind} {})",
                value.as_deref().unwrap_or("NULL")
            ),
            Error::UnboundVariable(v) => write!(f, "unbound variable {v} in plan"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
