//! Executes submissions under time and memory budgets, diffs against the
//! reference engine, and writes the notification "e-mail".

use crate::corpus::{correctness_queries, efficiency_queries, Corpus};
use crate::submission::Submission;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use xmldb_core::{Database, EngineKind, Error, Governor, QueryOptions, QueryResult};
use xmldb_storage::EnvConfig;

/// Budgets for one submission run.
#[derive(Debug, Clone)]
pub struct RunLimits {
    /// Wall-clock budget per efficiency query. The paper allowed "2 or 30
    /// minutes per query"; scaled-down workloads use seconds.
    pub efficiency_budget: Duration,
    /// Wall-clock budget per correctness query.
    pub correctness_budget: Duration,
    /// Buffer-pool byte budget — the paper's "only 20 MB of memory".
    pub pool_bytes: usize,
    /// Per-query working-memory budget (sort buffers, join blocks, M1's
    /// DOM), enforced by the query's governor. `None` = unbounded.
    pub mem_limit: Option<usize>,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            efficiency_budget: Duration::from_secs(5),
            correctness_budget: Duration::from_secs(10),
            pool_bytes: 4 << 20,
            mem_limit: None,
        }
    }
}

/// Result of one test query.
#[derive(Debug, Clone)]
pub enum TestOutcome {
    /// Output matched the reference.
    Pass(Duration),
    /// Output differed; carries (expected, got) prefixes for the report.
    Wrong {
        /// Prefix of the reference answer.
        expected: String,
        /// Prefix of the engine's answer.
        got: String,
    },
    /// The engine exceeded the budget and was stopped.
    Timeout,
    /// The engine errored where the reference did not (matching runtime
    /// errors — e.g. both sides raising the non-text comparison — count as
    /// a pass).
    EngineError(String),
    /// The engine *panicked*; the worker contained it and the testbed kept
    /// running (the paper's tester "takes precautions against system
    /// crashes"). Carries the panic message.
    Crashed(String),
}

impl TestOutcome {
    /// True for [`TestOutcome::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, TestOutcome::Pass(_))
    }
}

/// One cell of the Figure 7 table: a timed efficiency test, with timeouts
/// "assigned" the full budget exactly as the paper does.
#[derive(Debug, Clone)]
pub struct EfficiencyCell {
    /// Efficiency query name.
    pub query: String,
    /// What happened.
    pub outcome: TestOutcome,
    /// Time charged to the engine: the measured time, or the cap when the
    /// engine was stopped.
    pub charged: Duration,
}

/// The "e-mail" sent to the students "within half a day".
#[derive(Debug, Clone)]
pub struct SubmissionReport {
    /// Id assigned by the pool.
    pub submission_id: u64,
    /// Submitting team.
    pub team: String,
    /// Engine configuration tested.
    pub engine: EngineKind,
    /// `(document, query, outcome)` triplets.
    pub correctness: Vec<(String, String, TestOutcome)>,
    /// The five timed cells (empty when correctness failed).
    pub efficiency: Vec<EfficiencyCell>,
    /// All correctness outcomes passed.
    pub passed_correctness: bool,
    /// Total charged efficiency time (the Figure 7 "Total" column).
    pub total_charged: Duration,
    /// Run telemetry pulled from the environment's unified metrics
    /// registry after the sweep: the engine's latency distribution and
    /// the buffer-pool / read-path traffic the whole run caused.
    pub telemetry: Vec<String>,
}

impl SubmissionReport {
    /// Renders the notification message: run-time errors, scalability
    /// problems, diffs against the public answers, and the timing.
    pub fn render_email(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Subject: [saardb testbed] submission #{} ({}, engine {})\n\n",
            self.submission_id, self.team, self.engine
        ));
        out.push_str(&format!(
            "Correctness: {}\n",
            if self.passed_correctness {
                "PASSED"
            } else {
                "FAILED"
            }
        ));
        for (doc, query, outcome) in &self.correctness {
            match outcome {
                TestOutcome::Pass(t) => {
                    out.push_str(&format!(
                        "  ok   {doc}/{query} ({:.1} ms)\n",
                        t.as_secs_f64() * 1e3
                    ));
                }
                TestOutcome::Wrong { expected, got } => {
                    out.push_str(&format!(
                        "  DIFF {doc}/{query}\n    expected: {expected}\n    got:      {got}\n"
                    ));
                }
                TestOutcome::Timeout => out.push_str(&format!("  TIME {doc}/{query}\n")),
                TestOutcome::EngineError(e) => {
                    out.push_str(&format!("  ERR  {doc}/{query}: {e}\n"))
                }
                TestOutcome::Crashed(msg) => {
                    out.push_str(&format!("  CRASH {doc}/{query}: {msg}\n"))
                }
            }
        }
        if self.efficiency.is_empty() {
            out.push_str("\nEfficiency tests skipped (correctness not passed).\n");
        } else {
            out.push_str("\nEfficiency tests:\n");
            for cell in &self.efficiency {
                let status = match &cell.outcome {
                    TestOutcome::Pass(_) => "ok",
                    TestOutcome::Timeout => "STOPPED",
                    TestOutcome::Wrong { .. } => "DIFF",
                    TestOutcome::EngineError(_) => "ERR",
                    TestOutcome::Crashed(_) => "CRASH",
                };
                out.push_str(&format!(
                    "  {:8} {:28} {:>10.3} s\n",
                    status,
                    cell.query,
                    cell.charged.as_secs_f64()
                ));
            }
            out.push_str(&format!(
                "  Total: {:.3} s\n",
                self.total_charged.as_secs_f64()
            ));
        }
        if !self.telemetry.is_empty() {
            out.push_str("\nTelemetry (metrics registry):\n");
            for line in &self.telemetry {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out
    }
}

/// Summarizes a submission run from the environment's metrics registry:
/// the engine's latency quantiles plus the pool and read-path counters
/// accumulated across every query of the sweep (reference runs included
/// under their own engine label, so only the submission's label is read).
fn registry_telemetry(db: &Database, engine: EngineKind) -> Vec<String> {
    let registry = db.env().registry();
    let mut out = Vec::new();
    let latency = registry
        .histogram("saardb_query_latency_us", &[("engine", engine.name())])
        .snapshot();
    if latency.count > 0 {
        out.push(format!(
            "{}: {} queries, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            engine.name(),
            latency.count,
            latency.quantile(0.50) as f64 / 1e3,
            latency.quantile(0.95) as f64 / 1e3,
            latency.quantile(0.99) as f64 / 1e3,
            latency.max as f64 / 1e3,
        ));
    }
    let sum_of = |prefix: &str| -> u64 {
        registry
            .counter_values()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    let hits = sum_of("saardb_pool_hits_total");
    let misses = sum_of("saardb_pool_misses_total");
    let ratio = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64 * 100.0
    } else {
        100.0
    };
    out.push(format!(
        "pool: {hits} hits, {misses} misses ({ratio:.1}% hit ratio), {} evictions",
        sum_of("saardb_pool_evictions_total")
    ));
    out.push(format!(
        "read path: {} node views, {} in-place searches",
        sum_of("saardb_btree_node_views_total"),
        sum_of("saardb_btree_in_place_searches_total")
    ));
    let spills = sum_of("saardb_sort_spills_total");
    if spills > 0 {
        out.push(format!(
            "sorts: {spills} spills, {} bytes",
            sum_of("saardb_sort_spill_bytes_total")
        ));
    }
    let trips: u64 = sum_of("saardb_governor_trips_total");
    if trips > 0 {
        out.push(format!("governor: {trips} trips"));
    }
    out
}

/// Runs one submission against the corpus: correctness on all small
/// documents (diffed against milestone 1), then — only if those pass — the
/// five efficiency tests on the big DBLP.
pub fn run_submission(
    corpus: &Corpus,
    submission: &Submission,
    limits: &RunLimits,
) -> SubmissionReport {
    let db = Database::in_memory_with(EnvConfig::with_pool_bytes(limits.pool_bytes));
    for (name, xml) in &corpus.documents {
        db.load_document(name, xml)
            .expect("corpus documents are well-formed");
    }

    // The submission's options, topped up with the run's memory limit
    // (a submission-provided limit wins).
    let mut options = submission.options.clone();
    if options.mem_limit.is_none() {
        options.mem_limit = limits.mem_limit;
    }

    let mut correctness = Vec::new();
    let mut passed = true;
    for doc in corpus.correctness_documents() {
        for (qname, query) in correctness_queries() {
            let reference = run_query(
                &db,
                doc,
                query,
                EngineKind::M1InMemory,
                &QueryOptions::default(),
                limits.correctness_budget,
            );
            let got = run_query(
                &db,
                doc,
                query,
                submission.engine,
                &options,
                limits.correctness_budget,
            );
            let outcome = judge(&reference, &got);
            if !outcome.passed() {
                passed = false;
            }
            correctness.push((doc.to_string(), qname.to_string(), outcome));
        }
    }

    let mut efficiency = Vec::new();
    let mut total = Duration::ZERO;
    if passed {
        for (qname, query) in efficiency_queries() {
            let started = Instant::now();
            let result = run_query(
                &db,
                "dblp",
                query,
                submission.engine,
                &options,
                limits.efficiency_budget,
            );
            let (outcome, charged) = match result {
                GovernedRun::Completed(Ok(_), elapsed) => (TestOutcome::Pass(elapsed), elapsed),
                GovernedRun::Completed(Err(e), elapsed) => {
                    (TestOutcome::EngineError(e.to_string()), elapsed)
                }
                GovernedRun::TimedOut => (TestOutcome::Timeout, limits.efficiency_budget),
                GovernedRun::Crashed(msg) => (TestOutcome::Crashed(msg), started.elapsed()),
            };
            total += charged;
            efficiency.push(EfficiencyCell {
                query: qname.to_string(),
                outcome,
                charged,
            });
        }
    }

    SubmissionReport {
        submission_id: submission.id,
        team: submission.team.clone(),
        engine: submission.engine,
        correctness,
        efficiency,
        passed_correctness: passed,
        total_charged: total,
        telemetry: registry_telemetry(&db, submission.engine),
    }
}

/// Outcome of a governed, budgeted query run.
#[derive(Debug)]
pub enum GovernedRun {
    /// The worker finished within budget (successfully or with a query
    /// error).
    Completed(Result<QueryResult, Error>, Duration),
    /// The budget expired: the worker was cancelled through its governor
    /// and joined before this variant was returned — no thread outlives
    /// the run.
    TimedOut,
    /// The engine panicked; the worker contained the panic. Carries the
    /// panic message.
    Crashed(String),
}

/// Public budgeted runner: executes a query on a worker thread; `None`
/// means the budget expired or the engine crashed. Either way the worker
/// has been stopped *and joined* before this returns. Used by the Figure 7
/// benchmark harness.
pub fn run_budgeted(
    db: &Database,
    doc: &str,
    query: &str,
    engine: EngineKind,
    options: &QueryOptions,
    budget: Duration,
) -> Option<(Result<QueryResult, Error>, Duration)> {
    match run_query(db, doc, query, engine, options, budget) {
        GovernedRun::Completed(result, elapsed) => Some((result, elapsed)),
        GovernedRun::TimedOut | GovernedRun::Crashed(_) => None,
    }
}

/// Runs a query on a worker thread under a governor with a wall-clock
/// budget.
///
/// Unlike the historical tester (which abandoned over-budget workers the
/// way it killed student processes, leaving them to finish in the
/// background against a shared buffer pool), a timed-out worker here is
/// *cancelled* through the query's governor and *joined*: the worker hits
/// its next cooperative check, unwinds releasing its pins and temp files,
/// and terminates before this function returns. A panicking engine is
/// contained by `catch_unwind` and graded [`GovernedRun::Crashed`].
pub fn run_governed(
    db: &Database,
    doc: &str,
    query: &str,
    engine: EngineKind,
    options: &QueryOptions,
    budget: Duration,
) -> GovernedRun {
    // The supervisor keeps a clone of the governor so it can fire the
    // cancellation token from outside the worker thread.
    let governor = options
        .governor
        .clone()
        .unwrap_or_else(|| Governor::with_limits(options.timeout, options.mem_limit));
    let mut options = options.clone();
    options.governor = Some(governor.clone());

    let worker_db = db.clone();
    let doc = doc.to_string();
    let query = query.to_string();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            worker_db.query_with(&doc, &query, engine, &options)
        }));
        let _ = tx.send((result, started.elapsed()));
    });
    let outcome = match rx.recv_timeout(budget) {
        Ok((Ok(result), elapsed)) => match result {
            // A governor-stopped query (the options carried their own
            // deadline, or a scripted cancellation fired) grades as a
            // timeout, not an engine error.
            Err(e) if e.is_cancelled() || e.is_deadline_exceeded() => GovernedRun::TimedOut,
            result => GovernedRun::Completed(result, elapsed),
        },
        Ok((Err(payload), _)) => GovernedRun::Crashed(panic_message(payload.as_ref())),
        Err(_) => {
            governor.cancel();
            GovernedRun::TimedOut
        }
    };
    // Always join: on the timeout path the cancellation above makes the
    // worker fail its next cooperative check and exit promptly.
    handle.join().ok();
    outcome
}

fn run_query(
    db: &Database,
    doc: &str,
    query: &str,
    engine: EngineKind,
    options: &QueryOptions,
    budget: Duration,
) -> GovernedRun {
    run_governed(db, doc, query, engine, options, budget)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Compares an engine run against the reference run.
fn judge(reference: &GovernedRun, got: &GovernedRun) -> TestOutcome {
    match (reference, got) {
        (GovernedRun::Completed(Ok(expected), _), GovernedRun::Completed(Ok(actual), elapsed)) => {
            if expected == actual {
                TestOutcome::Pass(*elapsed)
            } else {
                TestOutcome::Wrong {
                    expected: truncate(&expected.to_xml()),
                    got: truncate(&actual.to_xml()),
                }
            }
        }
        // A crashing submission is graded as such; a crashing *reference*
        // is inconclusive (like a reference timeout) and never fails
        // students.
        (_, GovernedRun::Crashed(msg)) => TestOutcome::Crashed(msg.clone()),
        (GovernedRun::Crashed(_), _) => TestOutcome::Pass(Duration::ZERO),
        // The permitted non-text comparison exit is *plan-dependent* (like
        // division-by-zero in SQL): an optimized plan may evaluate a
        // comparison the nested semantics would have guarded away, or skip
        // one it would have hit. Either side raising it counts as
        // agreement; any other error does not.
        (GovernedRun::Completed(_, _), GovernedRun::Completed(Err(e), elapsed))
            if e.is_non_text_comparison() =>
        {
            TestOutcome::Pass(*elapsed)
        }
        (GovernedRun::Completed(Err(e), _), GovernedRun::Completed(Ok(_), elapsed))
            if e.is_non_text_comparison() =>
        {
            TestOutcome::Pass(*elapsed)
        }
        (GovernedRun::Completed(Ok(_), _), GovernedRun::Completed(Err(e), _)) => {
            TestOutcome::EngineError(e.to_string())
        }
        (GovernedRun::Completed(Err(_), _), GovernedRun::Completed(Ok(got), _)) => {
            TestOutcome::Wrong {
                expected: "<runtime error>".to_string(),
                got: truncate(&got.to_xml()),
            }
        }
        (_, GovernedRun::TimedOut) => TestOutcome::Timeout,
        (GovernedRun::TimedOut, _) => {
            // Reference timed out: treat as inconclusive pass so a slow
            // reference never fails students.
            TestOutcome::Pass(Duration::ZERO)
        }
        (GovernedRun::Completed(Err(_), _), GovernedRun::Completed(Err(e), _)) => {
            TestOutcome::EngineError(e.to_string())
        }
    }
}

fn truncate(s: &str) -> String {
    const LIMIT: usize = 160;
    if s.len() <= LIMIT {
        s.to_string()
    } else {
        let mut end = LIMIT;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn tiny_corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            dblp_scale: 0.05,
            excerpt_scale: 0.02,
            treebank_scale: 0.05,
        })
    }

    #[test]
    fn m4_submission_passes_everything() {
        let corpus = tiny_corpus();
        let submission = Submission {
            id: 1,
            team: "reference".into(),
            engine: EngineKind::M4CostBased,
            options: QueryOptions::default(),
        };
        let report = run_submission(&corpus, &submission, &RunLimits::default());
        assert!(
            report.passed_correctness,
            "email:\n{}",
            report.render_email()
        );
        assert_eq!(report.efficiency.len(), 5);
        assert!(report.efficiency.iter().all(|c| c.outcome.passed()));
        let email = report.render_email();
        assert!(email.contains("Correctness: PASSED"));
        assert!(email.contains("Total:"));
        // The telemetry section comes from the unified metrics registry.
        assert!(email.contains("Telemetry (metrics registry):"), "{email}");
        assert!(email.contains("m4-costbased:"), "{email}");
        assert!(email.contains("pool:"), "{email}");
    }

    #[test]
    fn all_engines_pass_correctness_on_tiny_corpus() {
        let corpus = tiny_corpus();
        for engine in EngineKind::ALL {
            let submission = Submission {
                id: 0,
                team: format!("team-{engine}"),
                engine,
                options: QueryOptions::default(),
            };
            let report = run_submission(&corpus, &submission, &RunLimits::default());
            assert!(
                report.passed_correctness,
                "engine {engine} failed:\n{}",
                report.render_email()
            );
        }
    }

    #[test]
    fn timeout_is_charged_the_cap() {
        let corpus = tiny_corpus();
        let submission = Submission {
            id: 2,
            team: "slow".into(),
            engine: EngineKind::NaiveScan,
            options: QueryOptions::default(),
        };
        // A budget far below the naive engine's join-heavy query times.
        // Queries may still legitimately finish before the tester checks
        // (the tester only stops engines it catches over budget), so the
        // assertions are: timed-out cells are charged exactly the cap, and
        // at least the expensive test 3 gets stopped.
        let limits = RunLimits {
            efficiency_budget: Duration::from_millis(1),
            ..RunLimits::default()
        };
        let report = run_submission(&corpus, &submission, &limits);
        assert!(report.passed_correctness, "{}", report.render_email());
        for cell in &report.efficiency {
            if matches!(cell.outcome, TestOutcome::Timeout) {
                assert_eq!(cell.charged, limits.efficiency_budget, "cell {cell:?}");
            }
        }
        assert!(
            report
                .efficiency
                .iter()
                .any(|c| matches!(c.outcome, TestOutcome::Timeout)),
            "the naive engine should get stopped at least once:\n{}",
            report.render_email()
        );
    }

    #[test]
    fn timed_out_worker_is_cancelled_and_joined() {
        let corpus = tiny_corpus();
        let db = Database::in_memory();
        for (name, xml) in &corpus.documents {
            db.load_document(name, xml).unwrap();
        }
        let baseline = db.env().handle_count();
        let (_, query) = efficiency_queries()[2];
        // A zero budget forces the timeout path deterministically; the
        // worker must then be cancelled through its governor and joined.
        let run = run_governed(
            &db,
            "dblp",
            query,
            EngineKind::NaiveScan,
            &QueryOptions::default(),
            Duration::ZERO,
        );
        assert!(matches!(run, GovernedRun::TimedOut), "got {run:?}");
        // The joined worker dropped its Database clone and released every
        // pin — the env handle count is back at the baseline, which the
        // old abandon-the-thread runner could not guarantee.
        assert_eq!(db.env().handle_count(), baseline);
        assert_eq!(db.env().pinned_frames(), 0);
        // The database stays fully usable.
        let r = db.query("dblp", "//author", EngineKind::M2Storage).unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn panicking_engine_grades_crashed() {
        let corpus = tiny_corpus();
        let db = Database::in_memory();
        for (name, xml) in &corpus.documents {
            db.load_document(name, xml).unwrap();
        }
        let gov = xmldb_core::Governor::unlimited();
        gov.trip_panic_after_checks(5);
        let options = QueryOptions {
            governor: Some(gov),
            ..QueryOptions::default()
        };
        let (_, query) = efficiency_queries()[0];
        let run = run_governed(
            &db,
            "dblp",
            query,
            EngineKind::M2Storage,
            &options,
            Duration::from_secs(30),
        );
        match run {
            GovernedRun::Crashed(msg) => assert!(msg.contains("fault injection"), "{msg}"),
            other => panic!("expected Crashed, got {other:?}"),
        }
        // Panic isolation: the pool dropped the crashed worker's pins and
        // keeps serving queries.
        assert_eq!(db.env().pinned_frames(), 0);
        let r = db
            .query("dblp", "//author", EngineKind::M4CostBased)
            .unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn crashing_submission_is_reported_not_fatal() {
        let corpus = tiny_corpus();
        let gov = xmldb_core::Governor::unlimited();
        gov.trip_panic_after_checks(40);
        let submission = Submission {
            id: 3,
            team: "crashy".into(),
            engine: EngineKind::M2Storage,
            options: QueryOptions {
                governor: Some(gov),
                ..QueryOptions::default()
            },
        };
        // run_submission survives the panicking engine and grades it.
        let report = run_submission(&corpus, &submission, &RunLimits::default());
        assert!(!report.passed_correctness);
        assert!(
            report
                .correctness
                .iter()
                .any(|(_, _, o)| matches!(o, TestOutcome::Crashed(_))),
            "email:\n{}",
            report.render_email()
        );
        assert!(report.render_email().contains("CRASH"));
    }
}
