//! The four workloads: what each one loads, what one op is, how an op is
//! checked, and where the traced run puts its spans. Everything saardb
//! does here goes through its public API.

use crate::stats::{fnv1a, fnv1a_extend, SplitMix64};
use crate::trace::{Layer, Tracer};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xmldb_core::{Database, EngineKind};
use xmldb_datagen::{generate_dblp, generate_treebank, DblpConfig, TreebankConfig};
use xmldb_server::{Client, QueryParams, Server, ServerConfig};
use xmldb_storage::EnvConfig;

/// The engine under test: the server's and the CLI's default.
pub const ENGINE: EngineKind = EngineKind::M4CostBased;

/// `ingest-durable` keeps at most this many documents; the oldest is
/// dropped after each op that exceeds it. At ≤ 25 KB of XML and ~12 pages
/// per document this caps the directory near 64 × 100 KB plus a 4 MiB
/// write-ahead log (the server checkpoints it at that size).
pub const LIVE_CAP: usize = 64;

/// Pool of the spilling workload: 128 frames against the ~1 000 pages the
/// three documents occupy (the paper ran 20 MB against 250 MB).
pub const SPILL_POOL_BYTES: usize = 1 << 20;
/// Pool of the warm workload: every page fits with room to spare.
pub const WARM_POOL_BYTES: usize = 64 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointWire,
    Figure7Warm,
    Figure7Spill,
    IngestDurable,
}

/// Sizes of one workload at full or smoke scale.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// DBLP scale of the main document (1.0 ≈ 700 publications, 150 KB).
    pub dblp_scale: f64,
    pub treebank_scale: f64,
    pub excerpt_scale: f64,
    /// Untimed ops run at the end of each set-up.
    pub warmup_ops: usize,
    /// Ops of the count-bounded traced run, untraced and again traced.
    pub trace_ops: usize,
    /// Set-ups per invocation; `setup_s` is their median.
    pub setup_repeats: usize,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PointWire,
        Kind::Figure7Warm,
        Kind::Figure7Spill,
        Kind::IngestDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointWire => "point-wire",
            Kind::Figure7Warm => "figure7-warm",
            Kind::Figure7Spill => "figure7-spill",
            Kind::IngestDurable => "ingest-durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True when ops cross the TCP protocol: the load generator and the
    /// server's session thread then need a core each.
    pub fn over_the_wire(self) -> bool {
        matches!(self, Kind::PointWire | Kind::IngestDurable)
    }

    pub fn op_definition(self) -> &'static str {
        match self {
            Kind::PointWire => "one ad-hoc Client::query drawn from five selective templates",
            Kind::Figure7Warm | Kind::Figure7Spill => {
                "one cycle: nine Database::query + to_xml (Figure 7's \"total\" column)"
            }
            Kind::IngestDurable => {
                "one document made durable over the wire (3 autocommit : 1 begin/load/commit)"
            }
        }
    }

    pub fn params(self, smoke: bool) -> Params {
        let full = match self {
            Kind::PointWire => Params {
                dblp_scale: 0.25,
                treebank_scale: 0.0,
                excerpt_scale: 0.0,
                warmup_ops: 2_000,
                trace_ops: 20_000,
                setup_repeats: 5,
            },
            Kind::Figure7Warm | Kind::Figure7Spill => Params {
                dblp_scale: 5.0,
                treebank_scale: 5.0,
                excerpt_scale: 1.0,
                warmup_ops: 2,
                trace_ops: 32,
                setup_repeats: 3,
            },
            Kind::IngestDurable => Params {
                dblp_scale: 0.0,
                treebank_scale: 0.0,
                excerpt_scale: 0.0,
                // Fills the live set past its cap: the server syncs every
                // file of the environment on each flush, so an op's cost
                // grows with the live set until the cap holds it level.
                warmup_ops: LIVE_CAP + 8,
                trace_ops: 160,
                setup_repeats: 3,
            },
        };
        if !smoke {
            return full;
        }
        Params {
            dblp_scale: full.dblp_scale.min(0.25),
            treebank_scale: full.treebank_scale.min(0.25),
            excerpt_scale: full.excerpt_scale.min(0.05),
            warmup_ops: full.warmup_ops.min(20),
            trace_ops: full.trace_ops.min(12),
            setup_repeats: 1,
        }
    }
}

/// One distinct statement of a workload and the answer a second engine
/// gave for it at set-up.
#[derive(Debug, Clone)]
pub struct Statement {
    pub name: String,
    pub doc: String,
    pub text: String,
    /// Canonical serialization from the reference engine; `None` until
    /// [`Bench::compute_references`] ran (warm-up ops are not checked).
    pub expected: Option<String>,
}

/// The Figure 7 cycle: the testbed's five efficiency queries (`eff3`, the
/// value join, on the excerpt as in the paper), three label paths of
/// rising result size, and the deep-nesting query on TREEBANK.
const CYCLE: [(&str, &str, &str); 9] = [
    (
        "eff1",
        "dblp",
        "for $x in //article return if (some $v in $x/volume satisfies true()) \
         then for $y in $x//author return $y else ()",
    ),
    (
        "eff2",
        "dblp",
        "for $x in //inproceedings return \
         if (some $c in $x/cite satisfies true()) then $x/title else ()",
    ),
    (
        "eff3",
        "excerpt",
        "for $a in //author/text() return for $t in //text() return \
         if ($a = $t) then <match/> else ()",
    ),
    ("eff4", "dblp", "for $x in //phdthesis return $x//author"),
    (
        "eff5",
        "dblp",
        "for $x in //article return for $a in $x//author return \
         if (some $v in $x/volume satisfies true()) then $a else ()",
    ),
    ("article-title", "dblp", "//article/title"),
    ("author", "dblp", "//author"),
    ("booktitle", "dblp", "//inproceedings/booktitle"),
    (
        "q16-deep-nesting",
        "treebank",
        "for $s in //S return for $n in $s//NN return $n",
    ),
];

/// The statement `ingest-durable` reads a live document back with.
pub const INGEST_QUERY: &str = "//author";

/// One request of the closed loop, drawn from the seeded stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `point-wire`: statement index.
    Query(usize),
    /// `figure7-*`: the whole cycle.
    Cycle,
    /// `ingest-durable`: make one generated document durable.
    Load {
        name: String,
        publications: usize,
        doc_seed: u64,
        transactional: bool,
    },
}

/// What one op did. Side work (`ingest-durable`'s read-back and drops)
/// counts toward `attempted`/`failed` but not toward `latency_ns`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    pub latency_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Result items returned by the queries of this op.
    pub items: u64,
    /// `ingest-durable`: the op ran as begin/load/commit.
    pub transactional: bool,
}

/// Result of the copy-and-reopen durability check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Durability {
    pub attempted: u64,
    pub failed: u64,
    /// `Database::open_dir` on the copy, recovery included.
    pub recovery_s: f64,
}

/// A directory under `.bench_tmp/` in the working directory, tagged with
/// the process id, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = tmp_root().join(format!(
            "{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last run's directory is gone.
        let _ = std::fs::remove_dir(tmp_root());
    }
}

/// Where on-disk workloads and span files live: inside the checkout.
pub fn tmp_root() -> PathBuf {
    PathBuf::from(".bench_tmp")
}

struct Wire {
    // Declared before the server so the session closes first.
    client: Client,
    server: Server,
}

/// The workload's connection. Takes the field, not the bench, so callers
/// can keep borrowing the bench's statements and documents.
fn client(wire: &mut Option<Wire>) -> &mut Client {
    &mut wire.as_mut().expect("wire workload").client
}

fn start_wire(db: &Database) -> Result<Wire, String> {
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Wire { client, server })
}

/// A set-up workload: documents loaded, server (if any) running, client
/// connected, warm-up done.
pub struct Bench {
    pub kind: Kind,
    pub params: Params,
    pub db: Database,
    wire: Option<Wire>,
    /// Loaded documents as `(name, xml)`; for `ingest-durable` the live
    /// set, oldest first.
    pub docs: VecDeque<(String, String)>,
    pub statements: Vec<Statement>,
    rng: SplitMix64,
    /// `ingest-durable`: documents loaded so far and acknowledged drops.
    loaded: u64,
    dropped: Vec<String>,
    /// XML bytes of every acknowledged load since the env was opened.
    pub user_bytes: u64,
    /// `ingest-durable`, traced run only: a second on-disk database the
    /// same writes are replayed on, embedded, to split the wire calls.
    replica: Option<(Database, TempDir)>,
    /// Latencies of side work, in microseconds: read-backs and drops.
    pub readback_us: Vec<f64>,
    pub drop_us: Vec<f64>,
    // Last: the directory must outlive the database handles above.
    dir: Option<TempDir>,
}

/// Up to `count` distinct `<tag>` text values of `xml`, a seeded draw.
fn sample_texts(xml: &str, tag: &str, count: usize, rng: &mut SplitMix64) -> Vec<String> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let distinct: std::collections::BTreeSet<&str> = xml
        .split(open.as_str())
        .skip(1)
        .filter_map(|rest| rest.split(close.as_str()).next())
        .collect();
    let mut values: Vec<&str> = distinct.into_iter().collect();
    let count = count.min(values.len());
    for i in 0..count {
        let j = i + rng.below(values.len() - i);
        values.swap(i, j);
    }
    values[..count].iter().map(|v| v.to_string()).collect()
}

/// Constants drawn per equality template of `point-wire`.
const POINT_CONSTANTS: usize = 8;

/// Volumes in the `point-wire` document. The generator gives each of the
/// 100 articles a volume with probability 0.08, so the count would swing
/// by a third from seed to seed and the cost of the two rare-label
/// templates — where the median op falls — with it. The document is
/// therefore the first of the seeded sequence with exactly this many.
const POINT_VOLUMES: usize = 8;

fn point_document(scale: f64, rng: &mut SplitMix64) -> String {
    loop {
        let xml = generate_dblp(&DblpConfig {
            seed: rng.next_u64(),
            ..DblpConfig::scaled(scale)
        });
        if xml.matches("<volume>").count() == POINT_VOLUMES {
            return xml;
        }
    }
}

/// The five `point-wire` templates, a fifth of the mix each: absent
/// label, rare label, child step under a rare parent, and text equality
/// on citations and on titles with [`POINT_CONSTANTS`] seeded constants
/// each. By cost the median op is the child step and the slowest fifth,
/// where p95 falls, the title equality (175 titles scanned, one hit).
fn point_statements(xml: &str, rng: &mut SplitMix64) -> Vec<Statement> {
    let mut out = vec![
        ("absent-label".to_string(), "//phdthesis".to_string()),
        ("rare-label".to_string(), "//volume".to_string()),
        (
            "child-of-rare-parent".to_string(),
            "for $v in //volume return $v/text()".to_string(),
        ),
    ];
    for tag in ["cite", "title"] {
        let values = sample_texts(xml, tag, POINT_CONSTANTS, rng);
        for i in 0..POINT_CONSTANTS {
            // A document with fewer distinct values repeats them.
            let value = values
                .get(i % values.len().max(1))
                .map_or("", String::as_str);
            out.push((
                format!("{tag}-eq-{i}"),
                format!(
                    "for $t in //{tag}/text() return if ($t = \"{value}\") then <hit/> else ()"
                ),
            ));
        }
    }
    out.into_iter()
        .map(|(name, text)| Statement {
            name,
            doc: "dblp".to_string(),
            text,
            expected: None,
        })
        .collect()
}

fn ingest_document(publications: usize, doc_seed: u64) -> String {
    let articles = publications * 4 / 7;
    generate_dblp(&DblpConfig {
        articles,
        inproceedings: publications - articles,
        seed: doc_seed,
        ..DblpConfig::default()
    })
}

impl Bench {
    /// Generates, loads, starts, connects and warms up: everything
    /// `setup_s` covers. Inputs are a pure function of `seed`.
    pub fn setup(kind: Kind, seed: u64, smoke: bool) -> Result<Bench, String> {
        let params = kind.params(smoke);
        let mut rng = SplitMix64::new(seed ^ fnv1a(kind.name().as_bytes()));
        let mut docs = VecDeque::new();
        let mut dir = None;
        let db = match kind {
            Kind::PointWire => Database::in_memory(),
            Kind::Figure7Warm => {
                Database::in_memory_with(EnvConfig::with_pool_bytes(WARM_POOL_BYTES))
            }
            Kind::Figure7Spill | Kind::IngestDurable => {
                let tmp = TempDir::new(kind.name()).map_err(|e| format!("temp dir: {e}"))?;
                let pool = if kind == Kind::Figure7Spill {
                    SPILL_POOL_BYTES
                } else {
                    EnvConfig::default().pool_bytes
                };
                let db =
                    Database::open_dir(tmp.path().join("db"), EnvConfig::with_pool_bytes(pool))
                        .map_err(|e| format!("open_dir: {e}"))?;
                dir = Some(tmp);
                db
            }
        };
        if kind == Kind::PointWire {
            docs.push_back((
                "dblp".to_string(),
                point_document(params.dblp_scale, &mut rng),
            ));
        }
        if matches!(kind, Kind::Figure7Warm | Kind::Figure7Spill) {
            docs.push_back((
                "dblp".to_string(),
                generate_dblp(&DblpConfig {
                    seed: rng.next_u64(),
                    ..DblpConfig::scaled(params.dblp_scale)
                }),
            ));
            docs.push_back((
                "excerpt".to_string(),
                generate_dblp(&DblpConfig {
                    seed: rng.next_u64(),
                    ..DblpConfig::scaled(params.excerpt_scale)
                }),
            ));
            docs.push_back((
                "treebank".to_string(),
                generate_treebank(&TreebankConfig {
                    seed: rng.next_u64(),
                    ..TreebankConfig::scaled(params.treebank_scale)
                }),
            ));
        }
        let mut user_bytes = 0;
        for (name, xml) in &docs {
            db.load_document(name, xml)
                .map_err(|e| format!("load {name}: {e}"))?;
            user_bytes += xml.len() as u64;
        }
        if kind == Kind::Figure7Spill {
            db.flush().map_err(|e| format!("flush: {e}"))?;
        }
        let statements = match kind {
            Kind::PointWire => point_statements(&docs[0].1, &mut rng),
            Kind::Figure7Warm | Kind::Figure7Spill => CYCLE
                .iter()
                .map(|&(name, doc, text)| Statement {
                    name: name.to_string(),
                    doc: doc.to_string(),
                    text: text.to_string(),
                    expected: None,
                })
                .collect(),
            Kind::IngestDurable => Vec::new(),
        };
        let wire = if kind.over_the_wire() {
            Some(start_wire(&db)?)
        } else {
            None
        };
        let mut bench = Bench {
            kind,
            params,
            db,
            wire,
            docs,
            statements,
            rng,
            loaded: 0,
            dropped: Vec::new(),
            user_bytes,
            replica: None,
            readback_us: Vec::new(),
            drop_us: Vec::new(),
            dir,
        };
        let mut off = Tracer::disabled();
        for _ in 0..params.warmup_ops {
            let request = bench.next_request();
            let outcome = bench.execute(&request, &mut off);
            if outcome.failed > 0 {
                return Err(format!("warm-up op failed: {request:?}"));
            }
        }
        Ok(bench)
    }

    /// Fills in every statement's reference answer with a second engine:
    /// the milestone-2 interpreter, which shares no planner or operator
    /// with the engine under test. `eff3` is quadratic for it (minutes at
    /// this scale), so the value join is checked by milestone 1, the
    /// repo's in-memory oracle, instead.
    pub fn compute_references(&mut self) -> Result<(), String> {
        for st in &mut self.statements {
            let engine = if st.name == "eff3" {
                EngineKind::M1InMemory
            } else {
                EngineKind::M2Storage
            };
            let result = self
                .db
                .query(&st.doc, &st.text, engine)
                .map_err(|e| format!("reference for {}: {e}", st.name))?;
            st.expected = Some(result.to_xml());
        }
        Ok(())
    }

    /// Digest of the workload's inputs: loaded documents and statements.
    pub fn inputs_digest(&self) -> u64 {
        let mut digest = fnv1a(self.kind.name().as_bytes());
        for (name, xml) in &self.docs {
            digest = fnv1a_extend(digest, name.as_bytes());
            digest = fnv1a_extend(digest, &fnv1a(xml.as_bytes()).to_le_bytes());
        }
        for st in &self.statements {
            digest = fnv1a_extend(digest, st.text.as_bytes());
        }
        digest
    }

    /// Digest of the inputs and the next `n` requests (which it consumes).
    #[cfg(test)]
    fn request_stream_digest(&mut self, n: usize) -> u64 {
        let mut digest = self.inputs_digest();
        for _ in 0..n {
            digest = fnv1a_extend(digest, format!("{:?}", self.next_request()).as_bytes());
        }
        digest
    }

    pub fn next_request(&mut self) -> Request {
        match self.kind {
            Kind::PointWire => {
                // `point_statements` lays the statements out template by
                // template: three fixed ones, then the constants of each
                // equality template.
                let template = self.rng.below(5);
                Request::Query(if template < 3 {
                    template
                } else {
                    3 + (template - 3) * POINT_CONSTANTS + self.rng.below(POINT_CONSTANTS)
                })
            }
            Kind::Figure7Warm | Kind::Figure7Spill => Request::Cycle,
            Kind::IngestDurable => {
                let index = self.loaded;
                self.loaded += 1;
                Request::Load {
                    name: format!("d{index}"),
                    // ~210 bytes a publication: 2 KB to 25 KB of XML.
                    publications: 10 + self.rng.below(110),
                    doc_seed: self.rng.next_u64(),
                    transactional: index % 4 == 3,
                }
            }
        }
    }

    /// Runs one request. With the tracer enabled the same work is done
    /// under spans (and, where one public call hides several layers,
    /// decomposed or replayed embedded — see README.md).
    pub fn execute(&mut self, request: &Request, tr: &mut Tracer) -> Outcome {
        tr.op += 1;
        match request {
            Request::Query(index) => self.execute_wire_query(*index, tr),
            Request::Cycle => self.execute_cycle(tr),
            Request::Load {
                name,
                publications,
                doc_seed,
                transactional,
            } => {
                let xml = ingest_document(*publications, *doc_seed);
                self.execute_load(name, xml, *transactional, tr)
            }
        }
    }

    fn execute_wire_query(&mut self, index: usize, tr: &mut Tracer) -> Outcome {
        let st = &self.statements[index];
        let op = tr.start("op", Layer::Op, None);
        let call = tr.start("Client::query", Layer::Server, Some(op));
        let started = Instant::now();
        let reply = client(&mut self.wire).query(&st.doc, &st.text, QueryParams::default());
        let latency_ns = started.elapsed().as_nanos() as u64;
        tr.end(call);
        tr.end(op);
        let mut outcome = Outcome {
            latency_ns,
            attempted: 1,
            ..Outcome::default()
        };
        match reply {
            Ok(reply) => {
                outcome.items = reply.count;
                if st.expected.as_ref().is_some_and(|e| *e != reply.xml) {
                    outcome.failed = 1;
                }
                if tr.enabled() {
                    // The server reports its own evaluation time for this
                    // very request; what is left of the round trip is the
                    // wire and the session. The evaluation is then split
                    // by replaying the statement embedded.
                    let core = tr.attribute(
                        "Database::query_with (server-reported)",
                        Layer::Core,
                        call,
                        reply.elapsed_us * 1_000,
                    );
                    let _ = trace_statement(tr, core, &self.db, st);
                }
            }
            Err(_) => outcome.failed = 1,
        }
        outcome
    }

    fn execute_cycle(&mut self, tr: &mut Tracer) -> Outcome {
        let mut answers = Vec::with_capacity(self.statements.len());
        let op = tr.start("op", Layer::Op, None);
        let started = Instant::now();
        for st in &self.statements {
            answers.push(if tr.enabled() {
                trace_statement(tr, op, &self.db, st)
            } else {
                self.db
                    .query(&st.doc, &st.text, ENGINE)
                    .map(|r| (r.len() as u64, r.to_xml()))
                    .map_err(|e| e.to_string())
            });
        }
        let latency_ns = started.elapsed().as_nanos() as u64;
        tr.end(op);
        let mut outcome = Outcome {
            latency_ns,
            attempted: 1,
            ..Outcome::default()
        };
        for (st, answer) in self.statements.iter().zip(&answers) {
            match answer {
                Ok((items, xml)) => {
                    outcome.items += items;
                    if st.expected.as_ref().is_some_and(|e| e != xml) {
                        outcome.failed = 1;
                    }
                }
                Err(_) => outcome.failed = 1,
            }
        }
        outcome
    }

    fn execute_load(
        &mut self,
        name: &str,
        xml: String,
        transactional: bool,
        tr: &mut Tracer,
    ) -> Outcome {
        let connection = client(&mut self.wire);
        let op = tr.start("op", Layer::Op, None);
        let started = Instant::now();
        let mut ok = true;
        let mut wire_call = |name, call: &mut dyn FnMut(&mut Client) -> bool| {
            let span = tr.start(name, Layer::Server, Some(op));
            ok &= call(connection);
            tr.end(span);
            span
        };
        if transactional {
            wire_call("Client::begin", &mut |c| c.begin().is_ok());
        }
        let load = wire_call("Client::load", &mut |c| c.load(name, &xml).is_ok());
        let commit =
            transactional.then(|| wire_call("Client::commit", &mut |c| c.commit().is_ok()));
        let latency_ns = started.elapsed().as_nanos() as u64;
        tr.end(op);
        let mut outcome = Outcome {
            latency_ns,
            attempted: 1,
            failed: u64::from(!ok),
            transactional,
            ..Outcome::default()
        };
        if !ok {
            return outcome;
        }
        if let Some((replica, _)) = &self.replica {
            replay_load(tr, replica, name, &xml, load, commit);
        }
        self.user_bytes += xml.len() as u64;
        self.docs.push_back((name.to_string(), xml));
        // Side work, outside the op's latency: every fourth op reads a
        // random live document back, and the live set is capped.
        if self.loaded % 4 == 0 {
            let pick = self.rng.below(self.docs.len());
            let doc = self.docs[pick].0.clone();
            outcome.attempted += 1;
            let expected = self
                .db
                .query(&doc, INGEST_QUERY, EngineKind::M2Storage)
                .map(|r| r.to_xml());
            let started = Instant::now();
            let reply = client(&mut self.wire).query(&doc, INGEST_QUERY, QueryParams::default());
            self.readback_us.push(started.elapsed().as_secs_f64() * 1e6);
            match (reply, expected) {
                (Ok(reply), Ok(expected)) if reply.xml == expected => outcome.items += reply.count,
                _ => outcome.failed += 1,
            }
        }
        while self.docs.len() > LIVE_CAP {
            let (oldest, _) = self.docs.pop_front().expect("live set is non-empty");
            outcome.attempted += 1;
            let started = Instant::now();
            let dropped = client(&mut self.wire).drop_doc(&oldest);
            self.drop_us.push(started.elapsed().as_secs_f64() * 1e6);
            if let Some((replica, _)) = &self.replica {
                let _ = replica.drop_document(&oldest);
            }
            match dropped {
                Ok(_) => self.dropped.push(oldest),
                Err(_) => outcome.failed += 1,
            }
        }
        outcome
    }

    /// Runs every distinct statement once through the workload's own path
    /// and checks it against its reference; `ingest-durable` runs a short
    /// stream and the durability check. Returns `(attempted, failed)`.
    pub fn verify_all(&mut self) -> (u64, u64) {
        let mut off = Tracer::disabled();
        let requests: Vec<Request> = match self.kind {
            Kind::PointWire => (0..self.statements.len()).map(Request::Query).collect(),
            Kind::Figure7Warm | Kind::Figure7Spill => vec![Request::Cycle],
            Kind::IngestDurable => (0..LIVE_CAP + 8).map(|_| self.next_request()).collect(),
        };
        let (mut attempted, mut failed) = (0, 0);
        for request in &requests {
            let outcome = self.execute(request, &mut off);
            attempted += outcome.attempted;
            failed += outcome.failed;
        }
        if self.kind == Kind::IngestDurable {
            let check = self.check_durability();
            attempted += check.attempted;
            failed += check.failed;
        }
        (attempted, failed)
    }

    /// Copies the database directory while the environment is still open
    /// — the bytes a `kill -9` would leave behind — reopens the copy, and
    /// requires every acknowledged live document to round-trip and every
    /// acknowledged drop to be absent.
    pub fn check_durability(&self) -> Durability {
        let dir = self.dir.as_ref().expect("on-disk workload").path();
        let copy = dir.join("copy");
        let mut out = Durability::default();
        let reopened = copy_dir(&dir.join("db"), &copy)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                let started = Instant::now();
                let db = Database::open_dir(&copy, EnvConfig::default());
                out.recovery_s = started.elapsed().as_secs_f64();
                db.map_err(|e| e.to_string())
            });
        out.attempted = (self.docs.len() + self.dropped.len()) as u64;
        match reopened {
            Ok(db) => {
                for (name, xml) in &self.docs {
                    if db.document_xml(name).ok().as_ref() != Some(xml) {
                        out.failed += 1;
                    }
                }
                out.failed += self.dropped.iter().filter(|n| db.has_document(n)).count() as u64;
            }
            Err(_) => out.failed = out.attempted,
        }
        let _ = std::fs::remove_dir_all(&copy);
        out
    }

    /// `ingest-durable`, before a traced run: opens the replica and loads
    /// the live set into it, so that a replayed flush syncs as many files
    /// as the server's does. From here on every load is replayed.
    pub fn start_replica(&mut self) -> Result<(), String> {
        let tmp = TempDir::new("replica").map_err(|e| format!("temp dir: {e}"))?;
        let replica = Database::open_dir(tmp.path().join("db"), EnvConfig::default())
            .map_err(|e| format!("open_dir: {e}"))?;
        for (name, xml) in &self.docs {
            replica
                .load_document(name, xml)
                .map_err(|e| format!("replica load {name}: {e}"))?;
        }
        replica.flush().map_err(|e| format!("replica flush: {e}"))?;
        self.replica = Some((replica, tmp));
        Ok(())
    }

    /// Pages the live documents occupy (four B+-trees each), and nodes.
    pub fn stored_pages_and_nodes(&self) -> Vec<(String, u64, u64)> {
        self.docs
            .iter()
            .filter_map(|(name, _)| {
                let store = self.db.store(name).ok()?;
                let pages = store.clustered_pages()
                    + store.label_index_pages()
                    + store.parent_index_pages()
                    + store.text_index_pages();
                Some((name.clone(), pages, store.node_count()))
            })
            .collect()
    }

    /// A second client on the workload's server (started on demand for the
    /// embedded workloads): the wire probe's connection.
    pub fn probe_client(&mut self) -> Result<Client, String> {
        if self.wire.is_none() {
            self.wire = Some(start_wire(&self.db)?);
        }
        let wire = self.wire.as_mut().expect("just started");
        Client::connect(wire.server.addr()).map_err(|e| format!("connect: {e}"))
    }
}

/// The traced form of one statement: `Database::prepare` (optimizer, with
/// the `algebra` compile it drives), `PreparedQuery::execute` (physical
/// down to the pool) and the serialization (xml), under `parent`.
/// `xq::parse` runs inside `prepare`; it is clocked on its own first and
/// attributed to it as a child, so `optimizer` keeps only plan time.
fn trace_statement(
    tr: &mut Tracer,
    parent: usize,
    db: &Database,
    st: &Statement,
) -> Result<(u64, String), String> {
    let started = Instant::now();
    black_box(xmldb_xq::parse(black_box(&st.text))).map_err(|e| e.to_string())?;
    let parse_ns = started.elapsed().as_nanos() as u64;
    let prepare = tr.start("Database::prepare", Layer::Optimizer, Some(parent));
    let prepared = db.prepare(&st.doc, &st.text, ENGINE);
    tr.end(prepare);
    tr.attribute("xq::parse", Layer::Xq, prepare, parse_ns);
    let prepared = prepared.map_err(|e| e.to_string())?;
    let execute = tr.start("PreparedQuery::execute", Layer::Physical, Some(parent));
    let result = prepared.execute();
    tr.end(execute);
    let result = result.map_err(|e| e.to_string())?;
    let serialize = tr.start("QueryResult::to_xml", Layer::Xml, Some(parent));
    let xml = result.to_xml();
    tr.end(serialize);
    Ok((result.len() as u64, xml))
}

/// Replays one acknowledged load on the replica, embedded, and attributes
/// the pieces to the wire calls they explain: shredding and index build
/// (`xasr`) under `Client::load`, and the durability step (`storage`)
/// under `Client::load` (autocommit: the server flushes) or under
/// `Client::commit`.
fn replay_load(
    tr: &mut Tracer,
    replica: &Database,
    name: &str,
    xml: &str,
    load: usize,
    commit: Option<usize>,
) {
    let clock = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed().as_nanos() as u64
    };
    match commit {
        None => {
            let ns = clock(&mut || drop(replica.load_document(name, xml)));
            tr.attribute("Database::load_document", Layer::Xasr, load, ns);
            let ns = clock(&mut || drop(replica.flush()));
            tr.attribute("Database::flush", Layer::Storage, load, ns);
        }
        Some(commit) => {
            let txn = replica.begin();
            let ns = clock(&mut || {
                let _scope = txn.install();
                drop(replica.load_document(name, xml));
            });
            tr.attribute("Database::load_document", Layer::Xasr, load, ns);
            let ns = clock(&mut || drop(txn.commit()));
            tr.attribute("Txn::commit", Layer::Storage, commit, ns);
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_function_of_the_seed() {
        for kind in Kind::ALL {
            let digest =
                |seed| Bench::setup(kind, seed, true).map(|mut b| b.request_stream_digest(64));
            let a = digest(1).unwrap();
            assert_eq!(a, digest(1).unwrap(), "{}: same seed", kind.name());
            assert_ne!(a, digest(2).unwrap(), "{}: other seed", kind.name());
        }
    }

    #[test]
    fn every_statement_returns_its_reference_answer() {
        for kind in Kind::ALL {
            let mut bench = Bench::setup(kind, 3, true).unwrap();
            bench.compute_references().unwrap();
            for st in &bench.statements {
                xmldb_xq::parse(&st.text).unwrap_or_else(|e| panic!("{}: {e}", st.name));
            }
            let (attempted, failed) = bench.verify_all();
            assert!(attempted > 0, "{}", kind.name());
            assert_eq!(failed, 0, "{}", kind.name());
        }
    }

    #[test]
    fn traced_ops_agree_with_untraced_ones() {
        for kind in Kind::ALL {
            let mut bench = Bench::setup(kind, 5, true).unwrap();
            bench.compute_references().unwrap();
            let mut tr = Tracer::new();
            if kind == Kind::IngestDurable {
                bench.start_replica().unwrap();
            }
            for _ in 0..bench.params.trace_ops {
                let request = bench.next_request();
                let outcome = bench.execute(&request, &mut tr);
                assert_eq!(outcome.failed, 0, "{}: {request:?}", kind.name());
            }
            let st = tr.self_times();
            assert!(st.op_ns > 0);
            let named: u64 = st.layer_ns.iter().sum();
            assert!(named > 0, "{}: no layer got any time", kind.name());
        }
    }

    #[test]
    fn temp_dirs_are_removed_on_drop() {
        let path = {
            let tmp = TempDir::new("unit").unwrap();
            std::fs::write(tmp.path().join("f"), b"x").unwrap();
            tmp.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
