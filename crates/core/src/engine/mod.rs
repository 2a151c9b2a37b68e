//! The four milestone engines (plus the naive-scan baseline).

pub mod interp;
pub mod m1;
pub mod tpm_exec;

use crate::{Error, QueryMetrics, QueryResult, Result};
use std::borrow::Borrow;
use std::time::{Duration, Instant};
use xmldb_algebra::rewrite::RewriteOptions;
use xmldb_obs::span;
use xmldb_optimizer::PlannerConfig;
use xmldb_storage::{Governor, GovernorSnapshot, IoSnapshot, MemReservation, StorageError, Txn};
use xmldb_xasr::{Statistics, XasrStore};
use xmldb_xq::Expr;

/// Which engine evaluates a query. See crate docs for the milestone
/// mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Milestone 1: in-memory DOM interpreter (the correctness oracle).
    M1InMemory,
    /// The unoptimized baseline: storage interpreter, every axis step a
    /// full clustered scan.
    NaiveScan,
    /// Milestone 2: storage interpreter with per-binding index lookups.
    M2Storage,
    /// Milestone 3: TPM algebra with heuristic optimization.
    M3Algebraic,
    /// Milestone 4: cost-based optimization and index joins.
    M4CostBased,
    /// Milestone 4 with the bonus-point pipelining feature: nested-loops
    /// rights re-execute their scans instead of spilling to scratch files
    /// ("industrious students were rewarded with bonus points if they
    /// implemented either pipelining or cost-based join reordering").
    M4Pipelined,
}

impl EngineKind {
    /// All engines, mild to wild.
    pub const ALL: [EngineKind; 6] = [
        EngineKind::M1InMemory,
        EngineKind::NaiveScan,
        EngineKind::M2Storage,
        EngineKind::M3Algebraic,
        EngineKind::M4CostBased,
        EngineKind::M4Pipelined,
    ];

    /// Short stable name (testbed reports, benchmark tables).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::M1InMemory => "m1-inmemory",
            EngineKind::NaiveScan => "naive-scan",
            EngineKind::M2Storage => "m2-storage",
            EngineKind::M3Algebraic => "m3-algebraic",
            EngineKind::M4CostBased => "m4-costbased",
            EngineKind::M4Pipelined => "m4-pipelined",
        }
    }

    /// How an algebraic engine compiles a query (`None` for the
    /// interpreters): milestone 3 has the merging rules and the heuristic
    /// planner; the milestone-4 engines add the left-outer-join constructor
    /// extension and plan by cost.
    pub(crate) fn plan_settings(self) -> Option<(RewriteOptions, PlannerConfig)> {
        let m4 = |config| Some((RewriteOptions::extended(), config));
        match self {
            EngineKind::M1InMemory | EngineKind::NaiveScan | EngineKind::M2Storage => None,
            EngineKind::M3Algebraic => {
                Some((RewriteOptions::default(), PlannerConfig::heuristic()))
            }
            EngineKind::M4CostBased => m4(PlannerConfig::cost_based()),
            EngineKind::M4Pipelined => m4(PlannerConfig {
                materialize_right: false,
                ..PlannerConfig::cost_based()
            }),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-query knobs.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Replace the document's statistics for cost estimation — the
    /// Figure 7 engine-2 configuration ("due to unlucky estimates, the
    /// second engine decided for an unoptimal query plan").
    pub stats_override: Option<Statistics>,
    /// Wall-clock deadline for the evaluation. Past it the governor fails
    /// cooperative checks with `DeadlineExceeded`.
    pub timeout: Option<Duration>,
    /// Memory budget in bytes for operator-side working memory (sort
    /// buffers, join blocks, milestone 1's DOM). Budget pressure spills
    /// where an external path exists and fails with `MemoryExceeded`
    /// where none does.
    pub mem_limit: Option<usize>,
    /// An explicit governor handle, overriding `timeout`/`mem_limit`.
    /// Lets callers keep the cancellation token to fire it from another
    /// thread (the testbed's timed runner does exactly this).
    pub governor: Option<Governor>,
    /// Run the query inside this transaction: its page reads take (and
    /// hold) shared locks, writes take exclusive locks, and nothing is
    /// durable until the transaction commits. `None` — the default — is
    /// auto-commit: the query runs on the untransacted fast path.
    pub txn: Option<Txn>,
    /// Wire-level request id of the statement this query serves, when it
    /// arrived over the network. Carried into [`QueryMetrics`] and the
    /// flight record so client-side log lines, server spans and
    /// slow-query output all name the same statement.
    pub request_id: Option<u64>,
}

impl QueryOptions {
    /// The governor this query runs under: an explicit handle wins; else
    /// one is built from `timeout`/`mem_limit` if either is set; else the
    /// enclosing scope's governor is inherited (inert when there is none).
    pub(crate) fn governor_handle(&self) -> Governor {
        if let Some(gov) = &self.governor {
            gov.clone()
        } else if self.timeout.is_some() || self.mem_limit.is_some() {
            Governor::with_limits(self.timeout, self.mem_limit)
        } else {
            Governor::current()
        }
    }
}

/// Up-front accounting for milestone 1's whole-document DOM: the engine
/// materializes every node before evaluating, so the reservation is made
/// from the document's statistics *before* reconstruction starts. A budget
/// too small for the DOM fails fast with `MemoryExceeded` instead of
/// letting reconstruction exhaust real memory.
fn reserve_dom_estimate(store: &XasrStore, governor: &Governor) -> Result<MemReservation> {
    // Per-node DOM overhead (node struct, child-vector slot, label share)
    // plus the raw text bytes. Deliberately coarse: accounting granularity
    // here is "the whole DOM", matching how M1 allocates.
    const PER_NODE: usize = 96;
    let stats = store.stats();
    let estimate = stats.node_count as usize * PER_NODE + stats.text_bytes as usize;
    Ok(MemReservation::new(governor, estimate)?)
}

/// Classifies an error as a governor trip for the
/// `saardb_governor_trips_total{kind=…}` counter. Governor failures
/// surface wrapped at whichever layer hit the cooperative check.
pub(crate) fn governor_trip_kind(e: &Error) -> Option<&'static str> {
    let storage = match e {
        Error::Storage(se) => se,
        Error::Xasr(xmldb_xasr::Error::Storage(se)) => se,
        Error::Exec(xmldb_physical::Error::Storage(se)) => se,
        _ => return None,
    };
    match storage {
        StorageError::Cancelled => Some("cancelled"),
        StorageError::DeadlineExceeded => Some("deadline"),
        StorageError::MemoryExceeded { .. } => Some("memory"),
        _ => None,
    }
}

/// A query compiled for one engine: everything that can be done before the
/// first execution has been done.
pub(crate) enum Compiled {
    /// Interpreter engines keep the parsed AST.
    Ast(Expr),
    /// Algebraic engines keep the fully planned program.
    Program(Box<tpm_exec::CompiledProgram>),
}

/// Compiles `query` for `engine`: TPM compilation, rewriting and planning
/// for the algebraic engines, nothing for the interpreters.
pub(crate) fn compile(
    store: &XasrStore,
    query: &Expr,
    engine: EngineKind,
    options: &QueryOptions,
) -> Compiled {
    match engine.plan_settings() {
        None => Compiled::Ast(query.clone()),
        Some((rewrites, config)) => Compiled::Program(Box::new(tpm_exec::compile_program(
            store, query, &rewrites, &config, options,
        ))),
    }
}

/// Evaluates a parsed query over a shredded document with the chosen
/// engine: compile it, then execute it — the same two steps a
/// [`crate::PreparedQuery`] takes apart. Both steps run inside
/// [`execute`]'s scope, so the deadline, the `exec` span, the latency
/// histogram and [`QueryMetrics::elapsed`] of an ad-hoc query cover its
/// planning too.
pub fn evaluate(
    store: &XasrStore,
    query: &Expr,
    engine: EngineKind,
    options: &QueryOptions,
) -> Result<QueryResult> {
    let compile = || compile(store, query, engine, options);
    execute(store, compile, engine, options)
}

/// Executes the query `compiled` yields — the one place an engine is
/// dispatched, for ad-hoc and prepared queries alike. A prepared query
/// hands over its finished [`Compiled`]; an ad-hoc one compiles here,
/// under the scope below. Runs under the governor and the transaction
/// `options` describe. The returned result carries [`QueryMetrics`] — wall
/// time and the buffer-pool traffic (I/O snapshot delta) the execution
/// caused. Every execution (including failed ones) lands in the
/// environment's metrics registry: a per-engine latency histogram, a query
/// counter, and — for governor failures — a trip counter by kind.
pub(crate) fn execute<C: Borrow<Compiled>>(
    store: &XasrStore,
    compiled: impl FnOnce() -> C,
    engine: EngineKind,
    options: &QueryOptions,
) -> Result<QueryResult> {
    let governor = options.governor_handle();
    let _scope = governor.install();
    let _txn_scope = options.txn.as_ref().map(Txn::install);
    let io_before = store.env().io_stats();
    let started = Instant::now();
    let exec_span = span("exec");
    exec_span.attr_str("engine", engine.name());
    let compiled = compiled();
    let compiled = compiled.borrow();
    let result = (|| match (compiled, engine) {
        (Compiled::Ast(query), EngineKind::M1InMemory) => {
            // Milestone 1 works on the DOM; materialize the document.
            // Account for the whole DOM up front so a small budget fails
            // with MemoryExceeded rather than OOMing mid-reconstruction.
            let _dom = reserve_dom_estimate(store, &governor)?;
            let doc = store.reconstruct(1)?;
            m1::evaluate(&doc, query)
        }
        (Compiled::Ast(query), EngineKind::NaiveScan) => {
            interp::evaluate(store, query, interp::AccessMode::FullScan)
        }
        (Compiled::Ast(query), _) => interp::evaluate(store, query, interp::AccessMode::Indexed),
        (Compiled::Program(program), _) => tpm_exec::execute_program(program, store),
    })();
    let elapsed = started.elapsed();
    let io = store.env().io_stats().delta(&io_before);
    exec_span.attr_u64("pool_hits", io.hits);
    exec_span.attr_u64("pool_misses", io.misses);
    exec_span.attr_u64("node_views", io.node_views);
    drop(exec_span);
    let registry = store.env().registry();
    let labels = [("engine", engine.name())];
    registry
        .histogram("saardb_query_latency_us", &labels)
        .record(elapsed.as_micros() as u64);
    registry.counter("saardb_queries_total", &labels).inc();
    if let Err(e) = &result {
        if let Some(kind) = governor_trip_kind(e) {
            registry
                .counter("saardb_governor_trips_total", &[("kind", kind)])
                .inc();
        }
    }
    let mut result = result?;
    result.set_metrics(QueryMetrics {
        elapsed,
        io,
        governor: governor.snapshot(),
        plan_digest: match compiled {
            Compiled::Ast(_) => None,
            Compiled::Program(program) => Some(program.plan_digest()),
        },
        spans: Default::default(),
        request_id: options.request_id,
    });
    Ok(result)
}

/// Renders the TPM expression and per-relfor physical plans for a query
/// under the given engine (EXPLAIN). Interpreter engines have no plans; the
/// rendering says so.
pub fn explain(
    store: &XasrStore,
    query: &Expr,
    engine: EngineKind,
    options: &QueryOptions,
) -> Result<String> {
    explain_with(store, query, engine, options, false)
}

/// EXPLAIN ANALYZE: runs the query and renders the executed plans with
/// actual row counts, open counts and wall time per operator, plus the
/// query's elapsed time and buffer-pool traffic. Interpreter engines have
/// no plans; for them only the execution summary is reported.
pub fn explain_analyze(
    store: &XasrStore,
    query: &Expr,
    engine: EngineKind,
    options: &QueryOptions,
) -> Result<String> {
    explain_with(store, query, engine, options, true)
}

fn explain_with(
    store: &XasrStore,
    query: &Expr,
    engine: EngineKind,
    options: &QueryOptions,
    analyze: bool,
) -> Result<String> {
    if let Some((rewrites, config)) = engine.plan_settings() {
        return tpm_exec::explain(store, query, &rewrites, &config, options, analyze);
    }
    let mut out = format!(
        "engine {} is an interpreter (no algebraic plan)\n",
        engine.name()
    );
    if analyze {
        let result = evaluate(store, query, engine, options);
        let metrics = result.as_ref().ok().and_then(|r| r.metrics());
        let measured = metrics.map(|m| (m.elapsed, &m.io, &m.governor));
        render_execution(&mut out, store, &result, measured);
    }
    Ok(out)
}

/// The `=== execution ===` footer of every EXPLAIN ANALYZE rendering: the
/// result (or runtime error) and, where the run was `measured`, its wall
/// time, buffer-pool traffic, read-path counters, WAL traffic and governor
/// snapshot.
fn render_execution(
    out: &mut String,
    store: &XasrStore,
    result: &Result<QueryResult>,
    measured: Option<(Duration, &IoSnapshot, &GovernorSnapshot)>,
) {
    out.push_str("=== execution ===\n");
    match result {
        Ok(r) => out.push_str(&format!("result: {} item(s)\n", r.len())),
        Err(e) => out.push_str(&format!("runtime error: {e}\n")),
    }
    let Some((elapsed, io, governor)) = measured else {
        return;
    };
    out.push_str(&format!("elapsed: {:.3} ms\n", elapsed.as_secs_f64() * 1e3));
    out.push_str(&format!(
        "buffer pool: {} hits, {} misses, {} physical reads, {} physical writes (hit ratio {:.1}%)\n",
        io.hits,
        io.misses,
        io.physical_reads,
        io.physical_writes,
        io.hit_ratio() * 100.0
    ));
    out.push_str(&format!(
        "read path: {} node views, {} in-place searches, {} shard locks\n",
        io.node_views, io.in_place_searches, io.shard_locks
    ));
    // Omit — rather than zero-fill — telemetry lines for subsystems the
    // query ran without: a WAL line without a WAL, or a governor line for
    // an unlimited query, carries no information.
    if store.env().has_wal() {
        out.push_str(&format!(
            "wal: {} page images, {} bytes, {} syncs\n",
            io.wal_appends, io.wal_bytes, io.wal_syncs
        ));
    }
    if governor.active {
        out.push_str(&format!("governor: {}\n", governor.render()));
    }
}
