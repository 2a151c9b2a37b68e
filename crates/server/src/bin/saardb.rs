//! `saardb` — the command-line front end to the native XML-DBMS.
//!
//! ```text
//! saardb --db <dir> load <name> <file.xml>     shred a document
//! saardb --db <dir> replace <name> <file.xml>  reshred (simple update)
//! saardb --db <dir> drop <name>                remove a document
//! saardb --db <dir> ls                         list documents
//! saardb --db <dir> stats <name>               document statistics
//! saardb --db <dir> dump <name>                serialize a document back to XML
//! saardb --db <dir> query <name> <xq>          evaluate a query
//! saardb --db <dir> explain <name> <xq>        show TPM + physical plan
//! saardb --db <dir> explain analyze <name> <xq>  run and show actual
//!                                              rows/opens/time per operator
//!                                              plus buffer-pool traffic
//! saardb --db <dir> stats [--json]             dump the metrics registry
//!                                              (Prometheus text or JSON)
//! saardb --db <dir> trace <name> <xq>          evaluate and print the
//!                                              query's span tree
//! saardb --db <dir> flightrec [--slow-ms N] [<name> <xq>...]
//!                                              run queries, then replay
//!                                              the flight recorder
//! saardb --db <dir> serve [--listen ADDR] [--max-sessions N]
//!                         [--queue-depth N] [--queue-timeout SECS]
//!                         [--handshake-timeout SECS] [--frame-timeout SECS]
//!                         [--idle-txn-timeout SECS] [--idle-timeout SECS]
//!                                              run the network server;
//!                                              close stdin (or type
//!                                              `stop`) for a graceful
//!                                              shutdown. The watchdog
//!                                              flags bound how long a
//!                                              session may dawdle in each
//!                                              phase (0 disables the
//!                                              idle-* ones)
//! saardb --db <dir> shell                      interactive embedded session
//! saardb --connect ADDR shell                  interactive *network*
//!                                              session against a running
//!                                              `saardb serve` (per-session
//!                                              transactions and prepared
//!                                              statements over the wire;
//!                                              busy rejections and dropped
//!                                              connections are retried
//!                                              with jittered backoff)
//!
//! options: --engine m1|naive|m2|m3|m4|m4p   (default m4)
//!          --pool-mb <n>                    buffer-pool budget (default 16)
//!          --timeout <secs>                 per-query wall-clock deadline
//!          --mem-limit <mb>                 per-query working-memory budget
//!          --connect <addr>                 talk to a saardb server instead
//!                                           of opening --db locally
//!
//! exit codes: 0 ok, 1 runtime error, 2 usage error, 3 server busy
//!             (typed admission rejection), 4 connection failure
//! ```

use std::process::ExitCode;
use std::time::Duration;
use xmldb_core::{Database, EngineKind, QueryOptions};
use xmldb_server::proto::engine_to_code;
use xmldb_server::{ClientError, QueryParams, RetryPolicy, RetryingClient, Server, ServerConfig};
use xmldb_storage::EnvConfig;

#[derive(Debug)]
struct Args {
    db_dir: Option<String>,
    connect: Option<String>,
    engine: EngineKind,
    pool_mb: usize,
    timeout: Option<Duration>,
    mem_limit_mb: Option<usize>,
    command: Vec<String>,
}

impl Args {
    fn query_options(&self) -> QueryOptions {
        QueryOptions {
            timeout: self.timeout,
            mem_limit: self.mem_limit_mb.map(|mb| mb << 20),
            ..QueryOptions::default()
        }
    }

    /// The same budgets, shaped for the wire (0 = server default).
    fn query_params(&self) -> QueryParams {
        QueryParams {
            engine: Some(engine_to_code(self.engine)),
            timeout_ms: self.timeout.map_or(0, |t| t.as_millis() as u64),
            mem_limit: self.mem_limit_mb.map_or(0, |mb| (mb as u64) << 20),
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: saardb --db <dir> [--engine m1|naive|m2|m3|m4|m4p] [--pool-mb N]\n\
         \x20             [--timeout SECS] [--mem-limit MB] <command>\n\
         \x20      saardb --connect <addr> shell\n\
         commands: load <name> <file.xml> | replace <name> <file.xml> | drop <name> |\n\
         \x20         ls | stats <name> | dump <name> | query <name> <xq> |\n\
         \x20         explain <name> <xq> | explain analyze <name> <xq> |\n\
         \x20         stats [--json] | trace <name> <xq> |\n\
         \x20         flightrec [--slow-ms N] [<name> <xq>...] |\n\
         \x20         serve [--listen ADDR] [--admin-addr ADDR] [--max-sessions N]\n\
         \x20               [--queue-depth N] [--queue-timeout SECS]\n\
         \x20               [--handshake-timeout SECS] [--frame-timeout SECS]\n\
         \x20               [--idle-txn-timeout SECS] [--idle-timeout SECS]\n\
         \x20               [--flightrec-capacity N] [--slow-ms N] | shell\n\
         \x20  saardb --connect <admin-addr> top [--interval SECS] [--count N]\n\
         \x20                          live monitor against a server's --admin-addr\n\
         \x20  saardb recover <dir>    replay the write-ahead log and print a\n\
         \x20                          recovery report (no database open needed)"
    );
}

/// Parses CLI arguments. Every flag validates its value here — a zero
/// pool, a NaN timeout or an unknown option must die as a usage error,
/// not as a wedged or panicking process later.
fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut db_dir = None;
    let mut connect = None;
    let mut engine = EngineKind::M4CostBased;
    let mut pool_mb = 16usize;
    let mut timeout = None;
    let mut mem_limit_mb = None;
    let mut command = Vec::new();
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--db" => db_dir = Some(args.next().ok_or("--db needs a directory")?),
            "--connect" => connect = Some(args.next().ok_or("--connect needs host:port")?),
            "--engine" => {
                let name = args.next().ok_or("--engine needs a name")?;
                engine = match name.as_str() {
                    "m1" => EngineKind::M1InMemory,
                    "naive" => EngineKind::NaiveScan,
                    "m2" => EngineKind::M2Storage,
                    "m3" => EngineKind::M3Algebraic,
                    "m4" => EngineKind::M4CostBased,
                    "m4p" => EngineKind::M4Pipelined,
                    other => return Err(format!("unknown engine {other:?}")),
                };
            }
            "--pool-mb" => {
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--pool-mb needs a whole number of megabytes")?;
                if n == 0 {
                    return Err("--pool-mb must be at least 1 (a zero-byte buffer pool cannot hold a single page)".into());
                }
                pool_mb = n;
            }
            "--timeout" => {
                let raw = args.next().ok_or("--timeout needs a number of seconds")?;
                let secs: f64 = raw
                    .parse()
                    .map_err(|_| format!("--timeout {raw:?} is not a number of seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!(
                        "--timeout must be a positive, finite number of seconds (got {raw:?})"
                    ));
                }
                timeout = Some(Duration::from_secs_f64(secs));
            }
            "--mem-limit" => {
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--mem-limit needs a whole number of megabytes")?;
                if n == 0 {
                    return Err(
                        "--mem-limit must be at least 1 MB (use no flag for unlimited)".into(),
                    );
                }
                mem_limit_mb = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => {
                command.push(other.to_string());
                command.extend(args.by_ref());
            }
        }
    }
    if command.is_empty() {
        return Err("no command given".into());
    }
    // Every command except `recover <dir>`, a network shell and the
    // network monitor (`top`) needs --db.
    let first = command.first().map(String::as_str);
    if db_dir.is_none()
        && first != Some("recover")
        && first != Some("top")
        && !(connect.is_some() && first == Some("shell"))
    {
        return Err("--db <dir> is required for this command".into());
    }
    Ok(Args {
        db_dir,
        connect,
        engine,
        pool_mb,
        timeout,
        mem_limit_mb,
        command,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("saardb: {msg}");
            }
            print_usage();
            return ExitCode::from(2);
        }
    };
    // `recover` replays the WAL directly, before any environment opens the
    // directory — opening one would itself replay (and truncate) the log,
    // leaving nothing to report.
    if args.command.first().map(String::as_str) == Some("recover") {
        let dir = match (args.command.get(1), &args.db_dir) {
            (Some(d), _) => d.clone(),
            (None, Some(d)) => d.clone(),
            (None, None) => {
                print_usage();
                return ExitCode::from(2);
            }
        };
        return match xmldb_storage::wal::replay(std::path::Path::new(&dir)) {
            Ok(report) => {
                println!("{report}");
                if report.is_clean() {
                    eprintln!("-- {dir}: clean (nothing to recover)");
                } else {
                    eprintln!("-- {dir}: recovered");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("recovery failed for {dir}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // A network shell never opens a local database.
    if let (Some(addr), Some("shell")) = (
        args.connect.as_deref(),
        args.command.first().map(String::as_str),
    ) {
        return finish(network_shell(addr, &args));
    }
    // `saardb top` polls a server's admin plane; no local database either.
    if args.command.first().map(String::as_str) == Some("top") {
        return finish(top(&args));
    }
    let Some(db_dir) = args.db_dir.as_deref() else {
        print_usage();
        return ExitCode::from(2);
    };
    let config = EnvConfig::with_pool_bytes(args.pool_mb << 20);
    let db = match Database::open_dir(db_dir, config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open database at {db_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    finish(run(&db, &args))
}

/// Maps the outcome to the documented exit codes: server-busy and
/// connection failures are distinguishable from query errors, so scripts
/// and load generators can branch on them without parsing stderr.
fn finish(result: Result<(), Box<dyn std::error::Error>>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // A retry budget that died on Busy/Io is still that failure —
            // scripts branch on the exit code, not on how patient we were.
            let cause = match e.downcast_ref::<ClientError>() {
                Some(ClientError::RetriesExhausted { last, .. }) => Some(&**last),
                other => other,
            };
            match cause {
                Some(ClientError::Busy(..)) => ExitCode::from(3),
                Some(ClientError::Io(_)) => ExitCode::from(4),
                _ => ExitCode::FAILURE,
            }
        }
    }
}

fn run(db: &Database, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cmd: Vec<&str> = args.command.iter().map(String::as_str).collect();
    match cmd.as_slice() {
        ["load", name, file] => {
            let started = std::time::Instant::now();
            db.load_document_from_path(name, file)?;
            let stats = db.store(name)?.stats().clone();
            eprintln!(
                "loaded {name}: {} nodes in {:.1} ms",
                stats.node_count,
                started.elapsed().as_secs_f64() * 1e3
            );
        }
        ["replace", name, file] => {
            let xml = std::fs::read_to_string(file)?;
            db.replace_document(name, &xml)?;
            eprintln!("replaced {name}");
        }
        ["drop", name] => {
            db.drop_document(name)?;
            eprintln!("dropped {name}");
        }
        ["ls"] => {
            for doc in db.documents()? {
                let stats = db.store(&doc)?.stats().clone();
                println!(
                    "{doc}\t{} nodes\t{} elements\tdepth {:.1}",
                    stats.node_count,
                    stats.element_count,
                    stats.avg_depth()
                );
            }
        }
        // `stats` with no document name dumps the engine-wide metrics
        // registry rather than one document's shredding statistics.
        ["stats"] => {
            print!("{}", db.env().registry().render_prometheus());
        }
        ["stats", "--json"] => {
            println!("{}", db.env().registry().render_json());
        }
        ["stats", name] => {
            let store = db.store(name)?;
            let stats = store.stats();
            println!("document:            {name}");
            println!("nodes:               {}", stats.node_count);
            println!("elements:            {}", stats.element_count);
            println!("text nodes:          {}", stats.text_count);
            println!("distinct text values:{}", stats.distinct_text_values);
            println!("avg depth:           {:.2}", stats.avg_depth());
            println!("max depth:           {}", stats.max_depth);
            println!("text bytes:          {}", stats.text_bytes);
            println!("clustered pages:     {}", store.clustered_pages());
            println!("label-index pages:   {}", store.label_index_pages());
            println!("parent-index pages:  {}", store.parent_index_pages());
            println!("text-index pages:    {}", store.text_index_pages());
            println!("labels ({}):", stats.distinct_labels());
            for (label, count) in &stats.label_counts {
                println!("  {label:<24}{count}");
            }
        }
        ["dump", name] => {
            println!("{}", db.document_xml(name)?);
        }
        ["query", name, query] => {
            let started = std::time::Instant::now();
            let result = db.query_with(name, query, args.engine, &args.query_options())?;
            println!("{result}");
            let io = result
                .metrics()
                .map(|m| {
                    let governor = if m.governor.active {
                        format!(", governor: {}", m.governor.render())
                    } else {
                        String::new()
                    };
                    format!(
                        ", {} pool hits, {} misses, {} reads{governor}",
                        m.io.hits, m.io.misses, m.io.physical_reads
                    )
                })
                .unwrap_or_default();
            eprintln!(
                "-- {} item(s) in {:.2} ms [{}{io}]",
                result.len(),
                started.elapsed().as_secs_f64() * 1e3,
                args.engine
            );
        }
        ["trace", name, query] => {
            let result = db.query_with(name, query, args.engine, &args.query_options())?;
            // Not every engine wires up the span recorder (milestone 1
            // evaluates on a DOM with no operator tree to instrument) —
            // that is an answerable condition, not a crash.
            let Some(metrics) = result.metrics() else {
                return Err(format!(
                    "the {} engine attached no metrics to this query; try --engine m4",
                    args.engine
                )
                .into());
            };
            eprintln!(
                "-- {} item(s) in {:.2} ms [{}]",
                result.len(),
                metrics.elapsed.as_secs_f64() * 1e3,
                args.engine
            );
            if let Some(digest) = metrics.plan_digest {
                eprintln!("-- plan digest {digest:016x}");
            }
            print!("{}", metrics.spans.render());
        }
        ["flightrec", rest @ ..] => {
            let mut slow_ms = None;
            let mut positional = Vec::new();
            let mut it = rest.iter();
            while let Some(tok) = it.next() {
                if *tok == "--slow-ms" {
                    let ms: u64 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("flightrec: --slow-ms needs a number of milliseconds")?;
                    slow_ms = Some(ms);
                } else {
                    positional.push(*tok);
                }
            }
            if let Some(ms) = slow_ms {
                db.set_slow_query_threshold(Some(Duration::from_millis(ms)));
            }
            if let Some((name, queries)) = positional.split_first() {
                for query in queries {
                    // Failed queries land in the recorder too; replay
                    // them instead of aborting the session.
                    let _ = db.query_with(name, query, args.engine, &args.query_options());
                }
            }
            let records = db.flight_recorder().records();
            if records.is_empty() {
                eprintln!("flight recorder is empty (give it queries to run)");
            }
            for record in &records {
                println!("{}", record.render());
            }
        }
        ["serve", rest @ ..] => serve(db, args, rest)?,
        ["shell"] => shell(db, args)?,
        ["explain", "analyze", name, query] => {
            print!(
                "{}",
                db.explain_analyze_with(name, query, args.engine, &args.query_options())?
            );
        }
        ["explain", name, query] => {
            print!("{}", db.explain(name, query, args.engine)?);
        }
        _ => {
            return Err("unknown command; run with --help".into());
        }
    }
    Ok(())
}

/// `saardb top`: poll a server's admin plane (`serve --admin-addr`) and
/// render a live one-screen monitor — req/s, per-statement latency
/// quantiles, session phases, pool/WAL/transaction rates.
fn top(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args
        .connect
        .as_deref()
        .ok_or("top needs --connect <admin-addr> (the server's --admin-addr)")?;
    let mut interval = Duration::from_secs(2);
    let mut count = None;
    let rest: Vec<&str> = args.command.iter().skip(1).map(String::as_str).collect();
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        match *tok {
            "--interval" => {
                let raw = it.next().ok_or("top: --interval needs seconds")?;
                let secs: f64 = raw
                    .parse()
                    .map_err(|_| format!("top: --interval {raw:?} is not a number"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("top: --interval must be positive and finite".into());
                }
                interval = Duration::from_secs_f64(secs);
            }
            "--count" => {
                let n: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("top: --count needs a whole number of frames")?;
                count = Some(n);
            }
            other => return Err(format!("top: unknown flag {other:?}").into()),
        }
    }
    xmldb_server::monitor::run(addr, interval, count).map_err(Into::into)
}

/// Parses a watchdog deadline for `serve`: a finite, non-negative number
/// of seconds, where `0` means "disabled" (`None`).
fn serve_seconds(flag: &str, value: Option<&&str>) -> Result<Option<Duration>, String> {
    let raw = *value.ok_or(format!("serve: {flag} needs a number of seconds"))?;
    let secs: f64 = raw
        .parse()
        .map_err(|_| format!("serve: {flag} {raw:?} is not a number of seconds"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "serve: {flag} must be a finite, non-negative number of seconds (0 disables)"
        ));
    }
    Ok((secs > 0.0).then(|| Duration::from_secs_f64(secs)))
}

/// `saardb serve`: run the network server until stdin closes (or says
/// `stop`), then shut down gracefully — reject new work, sever sessions
/// (open transactions roll back), join every thread, flush the database.
fn serve(db: &Database, args: &Args, rest: &[&str]) -> Result<(), Box<dyn std::error::Error>> {
    let mut listen = "127.0.0.1:4455".to_string();
    let mut admin_addr: Option<String> = None;
    let mut config = ServerConfig {
        default_engine: args.engine,
        default_mem_limit: args.mem_limit_mb.map(|mb| mb << 20),
        ..ServerConfig::default()
    };
    if args.timeout.is_some() {
        config.default_timeout = args.timeout;
    }
    // Environment default; an explicit --flightrec-capacity overrides it.
    if let Ok(raw) = std::env::var("SAARDB_FLIGHTREC_CAPACITY") {
        let n = raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| {
                format!("serve: SAARDB_FLIGHTREC_CAPACITY {raw:?} must be a whole number >= 1")
            })?;
        db.flight_recorder().set_capacity(n);
    }
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        match *tok {
            "--listen" => {
                listen = it
                    .next()
                    .ok_or("serve: --listen needs host:port")?
                    .to_string()
            }
            "--max-sessions" => {
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("serve: --max-sessions needs a whole number")?;
                if n == 0 {
                    return Err("serve: --max-sessions must be at least 1".into());
                }
                config.max_sessions = n;
            }
            "--queue-depth" => {
                config.queue_depth = it.next().and_then(|s| s.parse().ok()).ok_or(
                    "serve: --queue-depth needs a whole number (0 rejects instantly at capacity)",
                )?;
            }
            "--queue-timeout" => {
                let raw = it.next().ok_or("serve: --queue-timeout needs seconds")?;
                let secs: f64 = raw
                    .parse()
                    .map_err(|_| format!("serve: --queue-timeout {raw:?} is not a number"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("serve: --queue-timeout must be positive and finite".into());
                }
                config.queue_timeout = Duration::from_secs_f64(secs);
            }
            "--handshake-timeout" => {
                config.handshake_timeout = serve_seconds("--handshake-timeout", it.next())?
                    .ok_or("serve: --handshake-timeout cannot be 0 (a hello must arrive)")?;
            }
            "--frame-timeout" => {
                config.frame_timeout = serve_seconds("--frame-timeout", it.next())?
                    .ok_or("serve: --frame-timeout cannot be 0 (a started frame must finish)")?;
            }
            "--idle-txn-timeout" => {
                config.idle_txn_timeout = serve_seconds("--idle-txn-timeout", it.next())?;
            }
            "--idle-timeout" => {
                config.idle_timeout = serve_seconds("--idle-timeout", it.next())?;
            }
            "--admin-addr" => {
                admin_addr = Some(
                    it.next()
                        .ok_or("serve: --admin-addr needs host:port")?
                        .to_string(),
                );
            }
            "--flightrec-capacity" => {
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("serve: --flightrec-capacity needs a whole number of records")?;
                if n == 0 {
                    return Err("serve: --flightrec-capacity must be at least 1".into());
                }
                db.flight_recorder().set_capacity(n);
            }
            "--slow-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("serve: --slow-ms needs a number of milliseconds")?;
                db.set_slow_query_threshold(Some(Duration::from_millis(ms)));
            }
            other => return Err(format!("serve: unknown flag {other:?}").into()),
        }
    }
    let max_sessions = config.max_sessions;
    let queue_depth = config.queue_depth;
    let mut server = Server::start(db.clone(), listen.as_str(), config)?;
    println!("saardb listening on {}", server.addr());
    // The admin plane binds its own socket: scrapes and health probes
    // never queue behind the data plane's admission control. Held until
    // shutdown; dropping it joins the listener thread.
    let _admin = match admin_addr {
        Some(addr) => {
            let admin = xmldb_server::AdminServer::start(db.clone(), addr.as_str())?;
            println!("saardb admin endpoint on http://{}", admin.addr());
            eprintln!("--   /metrics /stats /flightrec /healthz /readyz");
            Some(admin)
        }
        None => None,
    };
    eprintln!(
        "-- {max_sessions} max sessions, admission queue depth {queue_depth}; \
         close stdin or type 'stop' to shut down"
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if line.trim() == "stop" => break,
            Ok(_) => {}
        }
    }
    server.shutdown();
    eprintln!("-- saardb server stopped");
    Ok(())
}

/// The embedded interactive session: statements between `begin` and
/// `commit`/`rollback` run inside one transaction (reads hold shared page
/// locks, writes exclusive ones, nothing durable until `commit`); outside
/// a transaction every statement auto-commits as the one-shot commands do.
/// A `deadlock victim` error means the whole transaction was rolled back —
/// `begin` again and retry.
fn shell(db: &Database, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::{BufRead, Write};
    let stdin = std::io::stdin();
    let mut txn: Option<xmldb_core::Txn> = None;
    eprintln!("saardb shell — begin | commit | rollback | query <doc> <xq> | load <doc> <file> | drop <doc> | ls | exit");
    loop {
        eprint!("{}", if txn.is_some() { "txn> " } else { "sdb> " });
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (word, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let outcome = shell_statement(db, args, &mut txn, word, rest.trim());
        match outcome {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => {
                eprintln!("error: {e}");
                // A deadlock victim is already rolled back — drop the
                // dead handle so the prompt reflects reality.
                if let Some(dead) = txn.as_ref().filter(|t| !t.is_active()) {
                    eprintln!("-- transaction {} ended; begin again to retry", dead.id());
                    txn = None;
                }
            }
        }
    }
    if let Some(t) = txn {
        eprintln!("-- rolling back open transaction {}", t.id());
        t.rollback()?;
    }
    Ok(())
}

/// One embedded-shell statement. Returns `Ok(true)` to exit the session.
fn shell_statement(
    db: &Database,
    args: &Args,
    txn: &mut Option<xmldb_core::Txn>,
    word: &str,
    rest: &str,
) -> Result<bool, Box<dyn std::error::Error>> {
    match (word, rest) {
        ("exit" | "quit", _) => return Ok(true),
        ("begin", _) => match txn {
            Some(t) => eprintln!("-- already in transaction {}", t.id()),
            None => {
                let t = db.begin();
                eprintln!("-- begin transaction {}", t.id());
                *txn = Some(t);
            }
        },
        ("commit", _) => match txn.take() {
            Some(t) => {
                let id = t.id();
                t.commit()?;
                eprintln!("-- committed transaction {id}");
            }
            None => eprintln!("-- no open transaction"),
        },
        ("rollback", _) => match txn.take() {
            Some(t) => {
                let id = t.id();
                t.rollback()?;
                eprintln!("-- rolled back transaction {id}");
            }
            None => eprintln!("-- no open transaction"),
        },
        ("ls", _) => {
            for doc in db.documents()? {
                println!("{doc}");
            }
        }
        ("load", spec) => {
            let (name, file) = spec
                .split_once(char::is_whitespace)
                .ok_or("load <doc> <file.xml>")?;
            let _scope = txn.as_ref().map(|t| t.install());
            db.load_document_from_path(name, file.trim())?;
            eprintln!("-- loaded {name}");
        }
        ("drop", name) if !name.is_empty() => {
            let _scope = txn.as_ref().map(|t| t.install());
            db.drop_document(name)?;
            eprintln!("-- dropped {name}");
        }
        ("query", spec) => {
            let (name, query) = spec
                .split_once(char::is_whitespace)
                .ok_or("query <doc> <xq>")?;
            let options = QueryOptions {
                txn: txn.clone(),
                ..args.query_options()
            };
            let result = db.query_with(name, query.trim(), args.engine, &options)?;
            println!("{result}");
            eprintln!("-- {} item(s) [{}]", result.len(), args.engine);
        }
        _ => eprintln!("-- unknown statement: {word} (begin | commit | rollback | query | load | drop | ls | exit)"),
    }
    Ok(false)
}

/// The network shell: the same grammar as the embedded one, spoken over
/// the wire to a running `saardb serve`. Transactions, prepared
/// statements and budgets live server-side in this connection's session.
fn network_shell(addr: &str, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::{BufRead, Write};
    // The retrying client absorbs Busy rejections, queue timeouts and
    // dropped connections behind jittered backoff; it also owns the
    // transaction flag, because retry safety depends on it.
    let mut client = RetryingClient::connect(addr, RetryPolicy::default())?;
    match client.session_id() {
        Some(id) => eprintln!("saardb shell — connected to {addr} (session {id})"),
        None => eprintln!("saardb shell — connected to {addr}"),
    }
    eprintln!(
        "-- begin | commit | rollback | query <doc> <xq> | prepare <doc> <xq> | exec <id> |\n\
         --   load <doc> <file.xml> | drop <doc> | ls | ping | exit"
    );
    let stdin = std::io::stdin();
    loop {
        eprint!("{}", if client.in_txn() { "txn> " } else { "sdb> " });
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF — the server rolls back any open transaction.
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let was_in_txn = client.in_txn();
        let (word, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match network_statement(&mut client, args, word, rest.trim()) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => {
                eprintln!("error: {e}");
                // The retry layer resets its transaction flag when the
                // server has already rolled the victim back (deadlock,
                // dead connection) — tell the user why the prompt changed.
                if was_in_txn && !client.in_txn() && word != "commit" && word != "rollback" {
                    eprintln!("-- transaction rolled back by the server; begin again to retry");
                }
            }
        }
    }
    let _ = client.close();
    Ok(())
}

/// One network-shell statement. Returns `Ok(true)` to exit the session.
fn network_statement(
    client: &mut RetryingClient,
    args: &Args,
    word: &str,
    rest: &str,
) -> Result<bool, ClientError> {
    match (word, rest) {
        ("exit" | "quit", _) => return Ok(true),
        ("ping", _) => {
            let started = std::time::Instant::now();
            client.ping()?;
            eprintln!("-- pong in {:.2} ms", started.elapsed().as_secs_f64() * 1e3);
        }
        ("begin", _) => {
            let info = client.begin()?;
            eprintln!("-- {info}");
        }
        ("commit", _) => {
            let info = client.commit()?;
            eprintln!("-- {info}");
        }
        ("rollback", _) => {
            let info = client.rollback()?;
            eprintln!("-- {info}");
        }
        ("ls", _) => {
            for doc in client.list_docs()? {
                println!("{doc}");
            }
        }
        ("load", spec) => {
            let Some((name, file)) = spec.split_once(char::is_whitespace) else {
                eprintln!("-- load <doc> <file.xml>");
                return Ok(false);
            };
            let xml = std::fs::read_to_string(file.trim()).map_err(ClientError::Io)?;
            let info = client.load(name, &xml)?;
            eprintln!("-- {info}");
        }
        ("drop", name) if !name.is_empty() => {
            let info = client.drop_doc(name)?;
            eprintln!("-- {info}");
        }
        ("query", spec) => {
            let Some((name, query)) = spec.split_once(char::is_whitespace) else {
                eprintln!("-- query <doc> <xq>");
                return Ok(false);
            };
            let reply = client.query(name, query.trim(), args.query_params())?;
            print!("{}", reply.xml);
            eprintln!(
                "-- {} item(s) in {:.2} ms [{}, server-side]",
                reply.count,
                reply.elapsed_us as f64 / 1e3,
                args.engine
            );
        }
        ("prepare", spec) => {
            let Some((name, query)) = spec.split_once(char::is_whitespace) else {
                eprintln!("-- prepare <doc> <xq>");
                return Ok(false);
            };
            let id = client.prepare(name, query.trim(), Some(engine_to_code(args.engine)))?;
            eprintln!("-- prepared statement {id} (run it with: exec {id})");
        }
        ("exec", id) => {
            let Ok(id) = id.parse::<u64>() else {
                eprintln!("-- exec <statement-id>");
                return Ok(false);
            };
            let reply = client.exec_prepared(id)?;
            print!("{}", reply.xml);
            eprintln!(
                "-- {} item(s) in {:.2} ms [prepared {id}]",
                reply.count,
                reply.elapsed_us as f64 / 1e3
            );
        }
        _ => eprintln!(
            "-- unknown statement: {word} (begin | commit | rollback | query | prepare | exec | load | drop | ls | ping | exit)"
        ),
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn pool_mb_rejects_zero_and_garbage() {
        assert!(parse(&["--db", "d", "--pool-mb", "0", "ls"])
            .unwrap_err()
            .contains("--pool-mb"));
        assert!(parse(&["--db", "d", "--pool-mb", "four", "ls"]).is_err());
        assert!(parse(&["--db", "d", "--pool-mb", "-4", "ls"]).is_err());
        assert_eq!(
            parse(&["--db", "d", "--pool-mb", "4", "ls"])
                .unwrap()
                .pool_mb,
            4
        );
    }

    #[test]
    fn timeout_rejects_negative_nan_zero_and_infinity() {
        for bad in ["-1", "NaN", "nan", "0", "inf", "-inf", "soon"] {
            let err = parse(&["--db", "d", "--timeout", bad, "ls"]).unwrap_err();
            assert!(err.contains("--timeout"), "{bad}: {err}");
        }
        let ok = parse(&["--db", "d", "--timeout", "2.5", "ls"]).unwrap();
        assert_eq!(ok.timeout, Some(Duration::from_millis(2500)));
    }

    #[test]
    fn removed_parallel_flag_and_engine_are_usage_errors() {
        let flag = ["--", "parallelism"].concat();
        let err = parse(&["--db", "d", &flag, "4", "ls"]).unwrap_err();
        assert!(err.contains(&flag), "{err}");
        let err = parse(&["--db", "d", "--engine", "parallel", "ls"]).unwrap_err();
        assert!(err.contains("parallel"), "{err}");
    }

    #[test]
    fn mem_limit_rejects_zero() {
        let err = parse(&["--db", "d", "--mem-limit", "0", "ls"]).unwrap_err();
        assert!(err.contains("--mem-limit"));
        assert_eq!(
            parse(&["--db", "d", "--mem-limit", "32", "ls"])
                .unwrap()
                .mem_limit_mb,
            Some(32)
        );
    }

    #[test]
    fn engine_names_resolve_and_garbage_is_rejected() {
        assert_eq!(
            parse(&["--db", "d", "--engine", "m4p", "ls"])
                .unwrap()
                .engine,
            EngineKind::M4Pipelined
        );
        assert!(parse(&["--db", "d", "--engine", "m9", "ls"])
            .unwrap_err()
            .contains("m9"));
    }

    #[test]
    fn db_required_except_for_recover_and_network_shell() {
        assert!(parse(&["ls"]).unwrap_err().contains("--db"));
        assert!(parse(&["recover", "some/dir"]).is_ok());
        assert!(parse(&["--connect", "127.0.0.1:4455", "shell"]).is_ok());
        // A network *query* (not shell) still needs --db today.
        assert!(parse(&["--connect", "127.0.0.1:4455", "ls"]).is_err());
    }

    #[test]
    fn missing_flag_values_are_usage_errors() {
        for flags in [
            &["--db"][..],
            &["--engine"],
            &["--pool-mb"],
            &["--timeout"],
            &["--mem-limit"],
            &["--connect"],
        ] {
            assert!(parse(flags).is_err(), "{flags:?} should be rejected");
        }
        assert!(parse(&[]).unwrap_err().contains("no command"));
    }

    #[test]
    fn serve_seconds_accepts_zero_as_disabled_and_rejects_garbage() {
        let val = |s: &'static str| serve_seconds("--idle-timeout", Some(&s));
        assert_eq!(val("0").unwrap(), None);
        assert_eq!(val("2.5").unwrap(), Some(Duration::from_millis(2500)));
        for bad in ["-1", "NaN", "inf", "later"] {
            assert!(val(bad).is_err(), "{bad} should be rejected");
        }
        assert!(serve_seconds("--idle-timeout", None).is_err());
    }

    #[test]
    fn command_tail_is_kept_verbatim() {
        let args = parse(&["--db", "d", "query", "doc", "//a[b = 'x']"]).unwrap();
        assert_eq!(args.command, vec!["query", "doc", "//a[b = 'x']"]);
    }
}
