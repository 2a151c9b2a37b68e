//! saardb's benchmark: four named workloads, end-to-end metrics with
//! tracing off, and a separate count-bounded traced run that yields the
//! per-layer figures. README.md (next to this file) defines every workload
//! and metric; `BENCHMARK.json` at the repo root is the machine-readable
//! summary.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! benchmark --smoke | --verify-only [--workload <name>] [--seed <n>]
//! benchmark --compare A.jsonl B.jsonl
//! ```

mod compare;
mod probes;
mod stats;
mod trace;
mod workloads;

use stats::{median, percentile, quartiles, SplitMix64};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Tracer};
use workloads::{Bench, Kind, LIVE_CAP};
use xmldb_storage::IoSnapshot;

/// An end-to-end metric: its unit, its direction and the share of the
/// baseline's median by which it may worsen before `--compare` (and the
/// PR gate) calls it worse. Mirrors `BENCHMARK.json`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "p95_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Measured rounds per timed run; `ops_per_s` is the median over them, so
/// one disturbed stretch of the window does not move it.
const ROUNDS: usize = 5;

const FLUSH_POLICY: &str = "the server's, unchanged: an autocommit load is load_document + \
     Env::flush (dirty pages, data-file fsyncs, WAL commit record, WAL fsync) before the reply; \
     a transactional load is made durable by Txn::commit (WAL commit record + fsync); \
     drops are not flushed";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    verify_only: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        verify_only: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--smoke" => args.smoke = true,
            "--verify-only" => args.verify_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the process (and every thread it starts later, the server's
/// included) to the highest-numbered CPU it may run on, and returns it.
///
/// A closed loop with one client keeps one thread runnable at a time, so
/// one CPU serves it; left to itself the scheduler moves the client and
/// the session thread apart and together again, and on this virtual
/// machine a cross-CPU wake-up costs 50 us against 10 us on one CPU — a
/// fivefold, minutes-long swing in `Client::ping` that has nothing to do
/// with the code under test.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes that the call only
    // reads; it names a CPU the current mask allows.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The run header: everything a reader needs to judge the numbers below.
fn print_header(bench: &Bench, seed: u64, mode: &str) {
    let env = bench.db.env();
    println!("workload        {} ({mode})", bench.kind.name());
    println!("op              {}", bench.kind.op_definition());
    println!(
        "load            closed loop, 1 client, seed {seed} (inputs digest {:016x})",
        bench.inputs_digest()
    );
    println!("engine          {}", workloads::ENGINE.name());
    println!(
        "storage         {}, page {} B, pool {} B = {} frames",
        if env.is_on_disk() {
            "on disk (pid-tagged directory under .bench_tmp/, removed on exit)"
        } else {
            "in memory"
        },
        env.page_size(),
        env.pool_frames() * env.page_size(),
        env.pool_frames(),
    );
    let stored = bench.stored_pages_and_nodes();
    for (name, pages, nodes) in stored.iter().take(4) {
        println!("document        {name}: {nodes} nodes, {pages} pages");
    }
    let pages: u64 = stored.iter().map(|s| s.1).sum();
    println!(
        "documents       {} live, {pages} pages against {} pool frames ({:.2}x)",
        stored.len(),
        env.pool_frames(),
        pages as f64 / env.pool_frames() as f64
    );
    if bench.kind == Kind::IngestDurable {
        println!(
            "disk cap        at most {LIVE_CAP} live documents of 2-25 KB XML, plus a WAL \
             checkpointed at 4 MiB"
        );
        println!("flush policy    {FLUSH_POLICY}");
    }
    println!("exec-pool       not on the path of the default engine; nothing measured");
}

/// One result: what the last line of standard output carries.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

fn print_latency_row(label: &str, us: &[f64]) {
    if us.is_empty() {
        return;
    }
    println!(
        "  {label:<22} n={:<8} p50 {:>12.1} us  p95 {:>12.1} us  p99 {:>12.1} us",
        us.len(),
        percentile(us, 50.0),
        percentile(us, 95.0),
        percentile(us, 99.0)
    );
}

/// The timed run: set up several times, then measure for `seconds` with
/// tracing off.
fn run_timed(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> Result<Report, String> {
    let repeats = kind.params(smoke).setup_repeats;
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..repeats {
        // Tear the previous set-up down first: its teardown is not set-up.
        drop(bench.take());
        let started = Instant::now();
        bench = Some(Bench::setup(kind, seed, smoke)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    bench.compute_references()?;
    print_header(&bench, seed, "timed, tracing off");

    let mut off = Tracer::disabled();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut latencies_us = Vec::new();
    let mut by_mode_us = [Vec::new(), Vec::new()];
    let mut round_ops_per_s = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut ops = 0u64;
        while ops == 0 || started.elapsed().as_secs_f64() < seconds / ROUNDS as f64 {
            let request = bench.next_request();
            let outcome = bench.execute(&request, &mut off);
            let us = outcome.latency_ns as f64 / 1e3;
            latencies_us.push(us);
            by_mode_us[usize::from(outcome.transactional)].push(us);
            attempted += outcome.attempted;
            failed += outcome.failed;
            ops += 1;
        }
        round_ops_per_s.push(ops as f64 / started.elapsed().as_secs_f64());
    }
    println!("\nper-op latency over {} ops:", latencies_us.len());
    print_latency_row("op", &latencies_us);
    if kind == Kind::IngestDurable {
        print_latency_row("  autocommit load", &by_mode_us[0]);
        print_latency_row("  begin/load/commit", &by_mode_us[1]);
        print_latency_row("read-back query (side)", &bench.readback_us);
        print_latency_row("drop_doc (side)", &bench.drop_us);
        let check = bench.check_durability();
        println!(
            "durability      copy-and-reopen: {} checks, {} lost; reopen took {:.4} s",
            check.attempted, check.failed, check.recovery_s
        );
        attempted += check.attempted;
        failed += check.failed;
    }
    let (q1, q3) = quartiles(&round_ops_per_s);
    println!(
        "rounds          {ROUNDS} x {:.1} s, ops/s {round_ops_per_s:.2?}, quartiles {q1:.2} .. {q3:.2}",
        seconds / ROUNDS as f64
    );
    println!("failed_share    {failed} of {attempted} attempted");
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("ops_per_s".into(), median(&round_ops_per_s), "1/s"),
            ("p50_us".into(), percentile(&latencies_us, 50.0), "us"),
            ("p95_us".into(), percentile(&latencies_us, 95.0), "us"),
            ("setup_s".into(), median(&setup_s), "s"),
        ],
    })
}

/// Untraced and traced ops alternate in blocks of this many: the period of
/// `ingest-durable`'s schedule (every fourth op is transactional, every
/// fourth is followed by a read-back), so both sides see the same mix.
const TRACE_BLOCK: usize = 4;

/// The traced run: a fixed number of ops with tracing off (counts and the
/// untraced latency) alternating with as many under spans, so that a slow
/// minute of the machine falls on both alike; then the probes.
fn run_traced(kind: Kind, seed: u64, smoke: bool) -> Result<Report, String> {
    let mut bench = Bench::setup(kind, seed, smoke)?;
    bench.compute_references()?;
    if kind == Kind::IngestDurable {
        bench.start_replica()?;
    }
    print_header(&bench, seed, "traced, count-bounded");
    let ops = bench.params.trace_ops;
    assert_eq!(ops % TRACE_BLOCK, 0, "trace_ops is whole blocks");
    let (mut attempted, mut failed, mut items) = (0u64, 0u64, 0u64);
    let mut off = Tracer::disabled();
    let mut tracer = Tracer::new();
    let mut untraced_us = Vec::with_capacity(ops);
    // Counter deltas of the untraced ops only: a traced op's embedded
    // replay reads pages too.
    let mut io = Vec::with_capacity(ops);
    for _ in 0..ops / TRACE_BLOCK {
        for _ in 0..TRACE_BLOCK {
            let request = bench.next_request();
            let before = bench.db.env().io_stats();
            let outcome = bench.execute(&request, &mut off);
            io.push(bench.db.env().io_stats().delta(&before));
            untraced_us.push(outcome.latency_ns as f64 / 1e3);
            attempted += outcome.attempted;
            failed += outcome.failed;
            items += outcome.items;
        }
        for _ in 0..TRACE_BLOCK {
            let request = bench.next_request();
            let outcome = bench.execute(&request, &mut tracer);
            attempted += outcome.attempted;
            failed += outcome.failed;
        }
    }
    let count = |field: fn(&IoSnapshot) -> u64| io.iter().map(field).sum::<u64>() as f64;
    let stored = bench.stored_pages_and_nodes();
    let stored_bytes = stored.iter().map(|s| s.1).sum::<u64>() * bench.db.env().page_size() as u64;
    let live_bytes: u64 = bench.docs.iter().map(|(_, xml)| xml.len() as u64).sum();
    let wal_bytes = bench.db.env().io_stats().wal_bytes;
    let user_bytes = bench.user_bytes;

    let traced_us = tracer.op_latencies_us();
    let self_times = tracer.self_times();
    let probes = probes::run(&mut bench, &mut SplitMix64::new(seed))?;
    if kind == Kind::IngestDurable {
        let check = bench.check_durability();
        println!(
            "storage.recovery_s          {:.4} s (copy-and-reopen, {} checks, {} lost)",
            check.recovery_s, check.attempted, check.failed
        );
        attempted += check.attempted;
        failed += check.failed;
    }
    let spans_path = workloads::tmp_root().join(format!("spans-{}.tsv", kind.name()));
    std::fs::create_dir_all(workloads::tmp_root())
        .and_then(|()| tracer.write_tsv(&spans_path))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit| metrics.push((name.to_string(), value, unit));
    let share = |ns: u64| ns as f64 / self_times.op_ns as f64;
    for (layer, &ns) in Layer::NAMED.iter().zip(&self_times.layer_ns) {
        put(&format!("{}.self_share", layer.name()), share(ns), "share");
    }
    put(
        "unattributed_share",
        share(self_times.unattributed_ns),
        "share",
    );
    let overhead = median(&traced_us) / median(&untraced_us) - 1.0;
    put("trace.overhead_share", overhead, "share");
    let views_per_result = count(|d| d.node_views) / items.max(1) as f64;
    put("physical.node_views_per_result", views_per_result, "count");
    let lookups = count(|d| d.hits + d.misses).max(1.0);
    put(
        "storage.pool_hit_rate",
        count(|d| d.hits) / lookups,
        "share",
    );
    let n = ops as f64;
    put(
        "storage.evictions_per_op",
        count(|d| d.evictions) / n,
        "count",
    );
    put(
        "storage.page_reads_per_op",
        count(|d| d.physical_reads) / n,
        "count",
    );
    put(
        "storage.wal_bytes_per_op",
        count(|d| d.wal_bytes) / n,
        "count",
    );
    put(
        "storage.wal_syncs_per_op",
        count(|d| d.wal_syncs) / n,
        "count",
    );
    let wal_per_user_byte = wal_bytes as f64 / user_bytes as f64;
    put(
        "storage.wal_bytes_per_user_byte",
        wal_per_user_byte,
        "count",
    );
    let stored_per_user_byte = stored_bytes as f64 / live_bytes as f64;
    put(
        "storage.stored_bytes_per_user_byte",
        stored_per_user_byte,
        "count",
    );
    put("server.ping_rtt_us", probes.ping_rtt_us, "us");
    put("server.wire_share", probes.wire_share, "share");
    put("xq.parse_us", probes.mean_us(|s| s.parse_us), "us");
    put(
        "optimizer.prepare_us",
        probes.mean_us(|s| s.prepare_us),
        "us",
    );
    put(
        "physical.execute_us",
        probes.mean_us(|s| s.execute_us),
        "us",
    );
    put("xasr.get_ns", probes.xasr_get_ns, "ns");
    put(
        "xasr.label_scan_ns_per_row",
        probes.label_scan_ns_per_row,
        "ns",
    );
    put("xasr.shred_mb_s", probes.shred_mb_s, "MB/s");
    put("xml.parse_mb_s", probes.xml_parse_mb_s, "MB/s");
    put("storage.btree_get_ns", probes.btree_get_ns, "ns");

    println!(
        "\n{ops} ops untraced (counts, p50 {:.1} us) alternating with {ops} traced (p50 {:.1} us), \
         {} spans -> {}",
        median(&untraced_us),
        median(&traced_us),
        tracer.spans.len(),
        spans_path.display()
    );
    println!(
        "self time as a share of the op (named layers {:.1} %):",
        (1.0 - share(self_times.unattributed_ns)) * 100.0
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!("per statement (probe medians, us): parse / prepare - parse / execute");
    for s in &probes.statements {
        println!(
            "  physical.execute_us.{:<18} {:>9.2} {:>10.2} {:>12.2}",
            s.name, s.parse_us, s.prepare_us, s.execute_us
        );
    }
    println!("failed_share    {failed} of {attempted} attempted");
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn append_record(path: &str, kind: Kind, seed: u64, trace: bool, json: &str) -> Result<(), String> {
    use std::io::Write;
    // The result object with three leading fields spliced in.
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, {}\n",
        kind.name(),
        u8::from(trace),
        &json[1..]
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b).map(|()| ExitCode::SUCCESS);
    }
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    if (args.trace || kinds.iter().any(|k| k.over_the_wire())) && cores() < 2 {
        // The process pins itself to one CPU; with no second one that CPU
        // is shared with everything else on the box and a round trip
        // measures the scheduler (the `BENCH_parallel.json` lesson).
        return Err(format!(
            "{} CPU available: wire numbers need one for the benchmark and one for the rest of \
             the machine; refusing to report them",
            cores()
        ));
    }
    let available = cores();
    match pin_to_one_cpu() {
        Some(cpu) => println!("cpu             {available} available, process pinned to cpu {cpu}"),
        None => println!("cpu             {available} available, not pinned"),
    }
    if args.verify_only {
        let mut lost = 0;
        for kind in kinds {
            let mut bench = Bench::setup(kind, args.seed, args.smoke)?;
            bench.compute_references()?;
            let (attempted, failed) = bench.verify_all();
            println!("{:<16} {attempted} checked, {failed} wrong", kind.name());
            lost += failed;
        }
        return Ok(if lost == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if !args.smoke && args.workload.is_none() {
        return Err("--workload <name> is required (or --smoke, --verify-only, --compare)".into());
    }
    let mut all_correct = true;
    for kind in kinds {
        let report = if args.trace {
            run_traced(kind, args.seed, args.smoke)?
        } else {
            let seconds = if args.smoke { 1.0 } else { args.seconds };
            run_timed(kind, args.seed, seconds, args.smoke)?
        };
        let json = report.to_json()?;
        if let Some(path) = &args.out {
            append_record(path, kind, args.seed, args.trace, &json)?;
        }
        all_correct &= report.failed == 0;
        println!("\n{json}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(reason) => {
            eprintln!("benchmark: {reason}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_report_every_metric_and_lose_nothing() {
        for kind in Kind::ALL {
            let timed = run_timed(kind, 11, 0.3, true).unwrap();
            assert_eq!(timed.failed, 0, "{}", kind.name());
            let names: Vec<&str> = timed.metrics.iter().map(|m| m.0.as_str()).collect();
            let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, declared);
            assert!(timed.metrics.iter().all(|m| m.1 > 0.0), "{}", kind.name());
            let json = timed.to_json().unwrap();
            let parsed = compare::parse_json(&json).unwrap();
            assert_eq!(parsed.get("correct"), Some(&compare::Json::Bool(true)));

            let traced = run_traced(kind, 11, true).unwrap();
            assert_eq!(traced.failed, 0, "{}", kind.name());
            assert!(compare::parse_json(&traced.to_json().unwrap()).is_some());
        }
    }

    /// `BENCHMARK.json` is what the PR gate reads; the tables in this file
    /// are what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_program() {
        use compare::Json;
        let manifest =
            compare::parse_json(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            let Some(Json::Array(items)) = manifest.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|i| match i.get("name") {
                    Some(Json::String(s)) => s.clone(),
                    _ => panic!("{key} entry without a name"),
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Kind::ALL.map(|k| k.name().to_string()).to_vec()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.map(|m| m.name.to_string()).to_vec()
        );
        let Some(Json::Array(e2e)) = manifest.get("end_to_end") else {
            panic!("end_to_end missing");
        };
        for (entry, metric) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("unit"), Some(&Json::String(metric.unit.into())));
            assert_eq!(entry.get("bound"), Some(&Json::Number(metric.bound)));
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better"), Some(&Json::String(better.into())));
        }
        let traced = run_traced(Kind::PointWire, 1, true).unwrap();
        let printed: Vec<String> = traced.metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(names("per_layer"), printed);
        let Some(Json::Array(layers)) = manifest.get("per_layer") else {
            panic!("per_layer missing");
        };
        for (entry, metric) in layers.iter().zip(&traced.metrics) {
            assert_eq!(entry.get("unit"), Some(&Json::String(metric.2.into())));
        }
    }
}
