//! Observability-overhead benchmark: warm B+-tree point-gets measured
//! with the unified metrics registry, span tracing and flight recorder
//! wired in, plus microbenchmarks of the instrumentation primitives
//! themselves.
//!
//! Emits a machine-readable JSON snapshot (`BENCH_obs.json` at the repo
//! root) and has a regression-gate mode used by CI:
//!
//! ```text
//! cargo bench -p xmldb-bench --bench obs -- --out BENCH_obs.json
//! cargo bench -p xmldb-bench --bench obs -- --check BENCH_obs.json
//! ```
//!
//! `--check` re-measures the warm point-get cases and fails (exit 1) if
//! any size regresses more than 5% against the committed snapshot.
//! Under `cargo test --benches` (no `--bench` flag) each case runs once
//! at a reduced size as a smoke test.

use xmldb_bench::harness::{self, bench_mode, best_of, measure, Bound, Row, Sample, Snapshot};
use xmldb_core::{Database, EngineKind};
use xmldb_obs::{span, Registry, TraceScope};
use xmldb_storage::{codec, BTree, Env, EnvConfig};

/// Deterministic shuffle order (no RNG dependency): a full-period LCG walk.
fn scrambled(n: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n).collect();
    for i in 0..order.len() as u64 {
        let j = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            % order.len() as u64;
        order.swap(i as usize, j as usize);
    }
    order
}

fn clustered_key(i: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(8);
    codec::put_u64(&mut k, i);
    k
}

/// The warm B+-tree point-get workload: every get routes through the
/// per-shard registry counters, so this number *is* the counter overhead
/// on the hottest read path.
fn point_get_case(n: u64) -> Sample {
    let env = Env::memory_with(EnvConfig {
        page_size: 8192,
        pool_bytes: 32 << 20,
    });
    let mut tree = BTree::create(&env, "bench").unwrap();
    tree.bulk_load((0..n).map(|i| (clustered_key(i), format!("value-{i:08}").into_bytes())))
        .unwrap();
    let order = scrambled(n);
    // Enough iterations that every size runs a few hundred milliseconds —
    // the 5% regression budget needs the noise floor well below that.
    let iters = (800_000 / n).clamp(4, 1024);
    let mut get_all = || {
        let mut hits = 0u64;
        for &i in &order {
            if tree.get(&clustered_key(i)).unwrap().is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, n);
        hits
    };
    let mut sample = measure("point_get", n, iters, &mut get_all);
    // Take the minimum over repeated runs: on a shared single-core box the
    // floor is stable run to run while the mean wanders by ±10%, and a
    // real read-path regression raises the floor too.
    if bench_mode() {
        for _ in 0..2 {
            let again = measure("point_get", n, iters, &mut get_all);
            if again.ns_per_op < sample.ns_per_op {
                sample = again;
            }
        }
    }
    sample
}

/// End-to-end warm point query: parse, plan, execute, span assembly,
/// registry update and flight-recorder deposit per query — the full
/// per-query observability cost.
fn query_cases(out: &mut Vec<Sample>) {
    let db = Database::in_memory_with(EnvConfig {
        page_size: 8192,
        pool_bytes: 32 << 20,
    });
    db.load_document(
        "bench",
        "<db><journal><name>author</name><title>t</title></journal></db>",
    )
    .unwrap();

    let iters = if bench_mode() { 500 } else { 2 };
    out.push(measure("query_point", 1, iters, || {
        let r = db
            .query("bench", "//title", EngineKind::M4CostBased)
            .unwrap();
        assert_eq!(r.len(), 1);
        1
    }));
}

/// The instrumentation primitives in isolation.
fn primitive_cases(out: &mut Vec<Sample>) {
    let reps = if bench_mode() { 1_000_000u64 } else { 1_000 };

    let registry = Registry::new();
    let counter = registry.counter("bench_counter_total", &[]);
    out.push(measure("counter_inc", reps, 4, || {
        for _ in 0..reps {
            counter.inc();
        }
        reps
    }));

    let histogram = registry.histogram("bench_histogram_ns", &[]);
    out.push(measure("histogram_record", reps, 4, || {
        for i in 0..reps {
            histogram.record(i);
        }
        reps
    }));

    // span() with no scope installed: the inert fast path every storage
    // operation outside a traced query takes.
    out.push(measure("span_inactive", reps, 4, || {
        for _ in 0..reps {
            let _s = span("bench");
        }
        reps
    }));

    // span() inside a live trace: allocate, record, pop.
    out.push(measure("span_active", reps, 4, || {
        let scope = TraceScope::start();
        for _ in 0..reps {
            let _s = span("bench");
        }
        let tree = scope.finish();
        assert_eq!(tree.spans.len(), reps as usize);
        reps
    }));
}

/// CI regression gate: re-measures the warm point-get cases and compares
/// each size against the committed snapshot. Up to three attempts per
/// size absorb scheduler noise; a case passes if any attempt lands
/// within the 5% budget.
fn check(snapshot: &Snapshot) -> bool {
    const TOLERANCE: f64 = 1.05;
    let mut ok = true;
    for [size, base_ns] in snapshot.rows("point_get", ["size", "ns_per_op"]) {
        let size = size as u64;
        let budget = base_ns * TOLERANCE;
        let (best, within) = best_of(3, Bound::Ceiling(budget), || point_get_case(size).ns_per_op);
        let verdict = if within { "ok" } else { "REGRESSED" };
        println!(
            "point_get n={size:<6} baseline {base_ns:>8.1} ns/op, measured {best:>8.1} ns/op \
             (budget {budget:>8.1})  {verdict}"
        );
        ok &= within;
    }
    ok
}

fn run() -> Vec<Row> {
    let sizes: &[u64] = if bench_mode() {
        &[1_000, 10_000, 50_000]
    } else {
        &[500]
    };
    let mut samples: Vec<Sample> = sizes.iter().map(|&n| point_get_case(n)).collect();
    query_cases(&mut samples);
    primitive_cases(&mut samples);
    samples.iter().map(Sample::row).collect()
}

fn main() {
    let failure = "observability overhead regression: warm point-get exceeded the 5% budget";
    harness::main("obs", run, Some((check, failure)));
}
