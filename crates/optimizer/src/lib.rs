#![warn(missing_docs)]

//! Cost-based query optimization — milestone 4.
//!
//! Turns a (merged) [`xmldb_algebra::Psx`] into a physical [`plan::Plan`]:
//!
//! * [`cost`] — the cost model. Exactly the paper's "minimum of
//!   information": per-label selectivities and the average node depth as
//!   the gross measure for ancestor–descendant join selectivities. The
//!   formulas "could not simply be taken out of a book" — they are
//!   transfers of relational estimation to the XASR encoding, documented
//!   on each function.
//! * [`planner`] — two planners:
//!   * [`planner::plan_heuristic`] (milestone 3): selection pushing onto
//!     full scans, nested-loops joins over materialized intermediates, and
//!     the fixed projection-compatible join order ("the basic strategy
//!     implemented in the majority of the student projects");
//!   * [`planner::plan_cost_based`] (milestone 4): index access paths,
//!     index nested-loops joins, cost-based join reordering over
//!     projection-compatible orders, and optionally sort-based
//!     (non-order-preserving) plans whose order is restored explicitly —
//!     the three approaches of the paper's ordering discussion, priced
//!     against each other.
//! * [`plan`] — the physical plan tree, its `EXPLAIN` rendering
//!   (reproducing the Figure 6 plan QP2), and instantiation into
//!   `xmldb-physical` operators.

pub mod cost;
pub mod plan;
pub mod planner;

pub use cost::CostModel;
pub use plan::{Plan, PlanMetrics, PlanNode};
pub use planner::{plan_cost_based, plan_heuristic, plan_outer_join, plan_psx, PlannerConfig};
