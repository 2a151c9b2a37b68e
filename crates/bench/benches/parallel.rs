//! Morsel-driven parallel execution benchmark: [`EngineKind::Parallel`]
//! against the serial milestone 4 engine on the same cost-based plans, at
//! 1/2/4/8 workers, over a generated DBLP-scale document.
//!
//! Both engines run the *same* batch operators — the serial engine pulls
//! each relfor's plan in 1024-row frames on the calling thread, the
//! parallel one splits the leaf scan into morsels and runs that same
//! drive per morsel on pool workers — so what this bench measures is the
//! morsel machinery alone: plan cloning per morsel, task dispatch, the
//! ordered gather. On a one-CPU box that is pure overhead and the honest
//! expectation is "about 1.0x, never much worse"; a real speedup needs
//! real cores and has not been observed yet (see EXPERIMENTS.md). Both
//! engines must produce byte-identical output; the bench asserts it.
//!
//! Emits a machine-readable JSON snapshot (`BENCH_parallel.json` at the
//! repo root) and has a regression-gate mode used by CI:
//!
//! ```text
//! cargo bench -p xmldb-bench --bench parallel -- --out BENCH_parallel.json
//! cargo bench -p xmldb-bench --bench parallel -- --check BENCH_parallel.json
//! ```
//!
//! `--check` re-measures and fails (exit 1) if the serial engine runs
//! more than 5% slower than the committed snapshot, or if the parallel
//! engine at 4 workers takes more than 1.25x the serial engine's time
//! (the morsel overhead bound, a ratio within one run, so it holds across
//! machines). Under `cargo test` (no `--bench` flag) each case runs once
//! at a reduced scale as a smoke test.

use std::time::Instant;
use xmldb_core::{Database, EngineKind, QueryOptions};
use xmldb_datagen::DblpConfig;

/// The scan pipeline: one by-label scan of every `article` with a
/// semijoin-style existence filter, emitting only the rare matches.
/// Thousands of rows flow through the fragment; a handful reach the
/// constructor, so the measured time is the pipeline, not output
/// assembly.
const SCAN_QUERY: &str = "for $x in //article return \
    if (some $v in $x/volume satisfies true()) then <hit/> else ()";

/// The join pipeline: the course's Example 6 — articles that carry a
/// volume, joined down to their authors (two index nested-loop joins
/// under the cost-based planner).
const JOIN_QUERY: &str = "for $x in //article return \
    if (some $v in $x/volume satisfies true()) \
    then for $y in $x//author return $y else ()";

/// One measured configuration. `workers == 0` is the serial engine.
struct Sample {
    name: &'static str,
    workers: usize,
    millis: f64,
    speedup: f64,
}

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Document scale. At 32 (≈ 8 MB of XML) the serial scan pipeline takes
/// about a millisecond — the shortest run the 5% serial bound can still be
/// timed to; the batch drive made scale 8 a 0.3 ms query.
fn scale() -> f64 {
    if bench_mode() {
        32.0
    } else {
        0.2
    }
}

/// Runs per measurement (the best one counts). Pool hand-offs make the
/// parallel engine's run times scatter more than the serial engine's, so
/// a best-of-few would mostly measure the scheduler.
fn iterations() -> usize {
    if bench_mode() {
        25
    } else {
        1
    }
}

fn load_db() -> Database {
    let db = Database::in_memory();
    let xml = xmldb_datagen::generate_dblp(&DblpConfig::scaled(scale()));
    db.load_document("dblp", &xml).expect("load dblp");
    db
}

/// Best-of-N wall time for one (query, engine, workers) configuration.
///
/// Uses prepared queries so the measurement is the physical execution —
/// parse, compilation and planning are identical between the serial and
/// parallel engines (same cost-based plans) and are paid once up front.
fn time_query(db: &Database, query: &str, workers: usize) -> f64 {
    let (engine, options) = if workers == 0 {
        (EngineKind::M4CostBased, QueryOptions::default())
    } else {
        (
            EngineKind::Parallel,
            QueryOptions {
                parallelism: Some(workers),
                ..QueryOptions::default()
            },
        )
    };
    let prepared = db
        .prepare_with("dblp", query, engine, &options)
        .expect("prepare bench query");
    let mut best = f64::INFINITY;
    for _ in 0..iterations() {
        let start = Instant::now();
        prepared.execute().expect("bench query");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The differential guarantee the engine registration promises: the
/// parallel engine's output is byte-identical (content and order) to the
/// serial engine's.
fn assert_identical(db: &Database, query: &str) {
    let serial = db
        .query("dblp", query, EngineKind::M4CostBased)
        .expect("serial query")
        .to_xml();
    for workers in [1usize, 4] {
        let options = QueryOptions {
            parallelism: Some(workers),
            ..QueryOptions::default()
        };
        let parallel = db
            .query_with("dblp", query, EngineKind::Parallel, &options)
            .expect("parallel query")
            .to_xml();
        assert_eq!(
            serial, parallel,
            "parallel output diverged at {workers} workers"
        );
    }
}

fn measure_case(db: &Database, name: &'static str, query: &str) -> Vec<Sample> {
    assert_identical(db, query);
    let serial_ms = time_query(db, query, 0);
    let mut samples = vec![Sample {
        name,
        workers: 0,
        millis: serial_ms,
        speedup: 1.0,
    }];
    for workers in [1usize, 2, 4, 8] {
        let ms = time_query(db, query, workers);
        samples.push(Sample {
            name,
            workers,
            millis: ms,
            speedup: serial_ms / ms,
        });
    }
    samples
}

fn render_json(samples: &[Sample]) -> String {
    let mut s = String::from("{\n  \"bench\": \"parallel\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"scale\": {},\n  \"results\": [\n",
        if bench_mode() { "bench" } else { "smoke" },
        scale()
    ));
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"workers\": {}, \"ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.name,
            r.workers,
            r.millis,
            r.speedup,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pulls `(name, workers, ms)` entries out of a committed snapshot
/// without a JSON dependency: entries are one per line in the format
/// `render_json` writes.
fn baseline_entries(snapshot: &str) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    for line in snapshot.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let name = rest.split('"').next().expect("malformed snapshot line");
        let workers: usize = rest
            .split("\"workers\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("malformed snapshot line");
        let ms: f64 = rest
            .split("\"ms\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("malformed snapshot line");
        out.push((name.to_string(), workers, ms));
    }
    out
}

/// CI regression gate: re-measures against the committed snapshot.
/// Two bounds per case, five attempts each to absorb scheduler noise:
///
/// - the serial engine must not run more than 5% slower than the
///   snapshot;
/// - the parallel engine at 4 workers (measured fresh, as a ratio within
///   one run, so it holds across machines) must not take more than 1.25x
///   the serial engine's time — morsel dispatch must stay cheap even
///   where there are no cores for it to use.
fn check(baseline_path: &str) -> bool {
    const MAX_PARALLEL_SLOWDOWN: f64 = 1.25;
    const SERIAL_TOLERANCE: f64 = 1.05;
    let mut path = std::path::PathBuf::from(baseline_path);
    if !path.exists() && path.is_relative() {
        path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(baseline_path);
    }
    let snapshot = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let baseline = baseline_entries(&snapshot);
    assert!(!baseline.is_empty(), "no entries in {baseline_path}");

    let db = load_db();
    let mut ok = true;
    for (name, query) in [("scan", SCAN_QUERY), ("join", JOIN_QUERY)] {
        let base_serial = baseline
            .iter()
            .find(|(n, w, _)| n == name && *w == 0)
            .map(|(_, _, ms)| *ms)
            .unwrap_or_else(|| panic!("no serial {name} entry in snapshot"));
        let ceiling = base_serial * SERIAL_TOLERANCE;
        let mut serial = f64::INFINITY;
        let mut parallel = f64::INFINITY;
        for _attempt in 0..5 {
            serial = serial.min(time_query(&db, query, 0));
            parallel = parallel.min(time_query(&db, query, 4));
            if serial <= ceiling && parallel <= serial * MAX_PARALLEL_SLOWDOWN {
                break;
            }
        }
        let slowdown = parallel / serial;
        let serial_ok = serial <= ceiling;
        let parallel_ok = slowdown <= MAX_PARALLEL_SLOWDOWN;
        println!(
            "{name:<5} serial {serial:>8.2}ms (snapshot {base_serial:>8.2}ms, ceiling \
             {ceiling:>8.2}ms)  parallel@4 {slowdown:>5.2}x serial  {}",
            match (serial_ok, parallel_ok) {
                (true, true) => "ok",
                (false, _) => "SERIAL REGRESSED",
                (_, false) => "MORSEL OVERHEAD ABOVE GATE",
            }
        );
        ok &= serial_ok && parallel_ok;
    }
    ok
}

fn main() {
    // Size the shared pool before its first use so the 8-worker sweep has
    // real threads to fan out to even on small CI boxes.
    std::env::set_var("SAARDB_PARALLELISM", "8");

    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // Any other flag is a harness flag (--bench, filters) — ignored.
        match flag.as_str() {
            "--out" => out_path = Some(args.next().expect("--out takes a path")),
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            _ => {}
        }
    }

    if let Some(path) = check_path {
        if !check(&path) {
            eprintln!("parallel execution regression (serial slowdown or morsel overhead)");
            std::process::exit(1);
        }
        return;
    }

    let db = load_db();
    let mut samples = Vec::new();
    for (name, query) in [("scan", SCAN_QUERY), ("join", JOIN_QUERY)] {
        samples.push(measure_case(&db, name, query));
    }
    let samples: Vec<Sample> = samples.into_iter().flatten().collect();
    for r in &samples {
        println!(
            "{:<5} {:>7}  {:>9.3} ms   {:>5.2}x",
            r.name,
            if r.workers == 0 {
                "serial".to_string()
            } else {
                format!("w={}", r.workers)
            },
            r.millis,
            r.speedup
        );
    }
    let json = render_json(&samples);
    match out_path {
        Some(path) => std::fs::write(&path, &json).expect("write JSON snapshot"),
        None => print!("{json}"),
    }
}
