#![warn(missing_docs)]

//! The course testbed of §3–4: the submission&test system, the query
//! corpus, and the grading model.
//!
//! The original was "implemented under Linux using Python and Shell
//! scripts"; submissions were picked from a pool "using a fair scheduling
//! by a tester running on a different machine", recompiled, and "run under
//! memory and time constraints", with students notified by e-mail. This
//! crate reproduces that infrastructure in-process:
//!
//! * [`corpus`] — the test documents (handmade / DBLP excerpt / DBLP /
//!   TREEBANK substitutes) and queries: 16 public correctness queries
//!   covering "fairly all XQ constructs", plus the five secret efficiency
//!   queries "engineered to greatly profit from the optimization
//!   techniques treated in the lectures",
//! * [`submission`] — the submission pool with fair (round-robin over
//!   teams) scheduling,
//! * [`runner`] — executes a submission under wall-clock and buffer-pool
//!   budgets, diffs answers against the milestone-1 reference engine, and
//!   produces the notification report,
//! * [`grading`] — the §3 points model: early-bird points, lateness
//!   penalties, scalability bonuses, exam admission,
//! * [`torture`] — crash-torture harness: kill the storage layer after a
//!   scripted number of page writes, reopen, and verify WAL recovery
//!   restores exactly the committed documents,
//! * [`triage`] — differential-engine triage: run every engine against the
//!   M1 oracle over the corpus plus generated documents, shrink each
//!   mismatch to a minimal witness, and report it with every engine's
//!   output and the offender's `EXPLAIN ANALYZE` trace,
//! * [`chaos`] — network fault injection: a TCP relay that delays,
//!   trickles, stalls and severs traffic mid-frame, for proving the
//!   server's watchdog and the client's retry policy against a hostile
//!   link (the wire-level sibling of [`torture`]).

pub mod chaos;
pub mod corpus;
pub mod grading;
pub mod runner;
pub mod submission;
pub mod torture;
pub mod triage;

pub use chaos::{ChaosPlan, ChaosProxy, Direction};
pub use corpus::{Corpus, CorpusConfig};
pub use grading::{GradeBook, GradeOutcome};
pub use runner::{
    run_budgeted, run_governed, run_submission, EfficiencyCell, GovernedRun, RunLimits,
    SubmissionReport, TestOutcome,
};
pub use submission::{Submission, SubmissionPool};
pub use torture::{
    assert_quiescent, cancel_torture, doc_commit_stress, doc_torture, CancelPointOutcome,
    CancelTortureConfig, CancelTortureReport, CommitStressReport, DocTortureConfig,
    KillPointOutcome, TortureReport,
};
pub use triage::{triage_corpus, triage_query, EngineRun, Mismatch, TriageSummary};
