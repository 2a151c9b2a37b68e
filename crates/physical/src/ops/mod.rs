//! The operator zoo. See crate docs for the inventory.

mod filter;
mod join;
mod scan;
mod sort;

pub use filter::{FilterOp, LimitOp, ProjectOp, RowsOp};
pub use join::{JoinInner, JoinOp};
pub use scan::{Probe, ScanOp, Src};
pub use sort::{MaterializeOp, SortOp};
