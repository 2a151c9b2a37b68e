//! The one harness every target in `benches/` runs on.
//!
//! A bench target is a `harness = false` binary. Cargo passes it
//! `--bench` under `cargo bench`, and nothing under `cargo test
//! --benches`, where each case runs once at a reduced size as a smoke
//! test ([`bench_mode`]). Beyond that a bench understands exactly two
//! flags, both handled by [`main`]:
//!
//! * `--out <path>` also writes the run's snapshot to `path`;
//! * `--check <snapshot>` re-measures against a committed snapshot and
//!   exits 1 when the bench's gate fails. A bare file name resolves
//!   against the workspace root, where the `BENCH_*.json` snapshots live.
//!
//! A snapshot is one JSON object holding the bench name, the mode and a
//! `results` array, with one result row per line ([`render`]).

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xmldb_server::monitor::{parse_json, Json};

/// True under `cargo bench` (full size), false in smoke mode.
pub fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// One snapshot value, spelled the way the committed snapshots spell it.
#[derive(Debug)]
pub enum Field {
    /// A string, quoted.
    Str(&'static str),
    /// An integer.
    Int(u64),
    /// A float printed with the given number of decimals.
    Fixed(f64, usize),
}

/// One result row: `(key, value)` pairs in output order, `name` first.
pub type Row = Vec<(&'static str, Field)>;

/// Renders a snapshot of `rows` written by `bench`.
pub fn render(bench: &str, rows: &[Row]) -> String {
    let mode = if bench_mode() { "bench" } else { "smoke" };
    let mut s =
        format!("{{\n  \"bench\": \"{bench}\",\n  \"mode\": \"{mode}\",\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .iter()
            .map(|(key, value)| match value {
                Field::Str(v) => format!("\"{key}\": \"{v}\""),
                Field::Int(v) => format!("\"{key}\": {v}"),
                Field::Fixed(v, decimals) => format!("\"{key}\": {v:.decimals$}"),
            })
            .collect();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(s, "    {{{}}}{comma}", fields.join(", "));
    }
    s.push_str("  ]\n}\n");
    s
}

/// A parsed snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The bench that wrote it.
    bench: String,
    rows: Vec<Json>,
}

impl Snapshot {
    /// Parses a snapshot's text.
    fn parse(text: &str) -> Result<Snapshot, String> {
        let json = parse_json(text)?;
        let Some(Json::Str(bench)) = json.get("bench") else {
            return Err("no \"bench\" name".into());
        };
        let Some(Json::Arr(rows)) = json.get("results") else {
            return Err("no \"results\" array".into());
        };
        Ok(Snapshot {
            bench: bench.clone(),
            rows: rows.clone(),
        })
    }

    /// Reads and parses the snapshot at `path`. Cargo runs benches from
    /// the package root, so a relative path that does not exist there is
    /// taken from the workspace root.
    pub fn read(path: &str) -> Snapshot {
        let mut resolved = PathBuf::from(path);
        if !resolved.exists() && resolved.is_relative() {
            resolved = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path);
        }
        let text = std::fs::read_to_string(&resolved)
            .unwrap_or_else(|e| panic!("cannot read snapshot {}: {e}", resolved.display()));
        Snapshot::parse(&text)
            .unwrap_or_else(|e| panic!("malformed snapshot {}: {e}", resolved.display()))
    }

    /// The numeric fields `keys` of every row named `name`, in file order.
    /// Panics if there is no such row or one lacks a key: a gate cannot
    /// judge a run against a snapshot that has nothing to compare.
    pub fn rows<const N: usize>(&self, name: &str, keys: [&str; N]) -> Vec<[f64; N]> {
        let rows: Vec<[f64; N]> = self
            .rows
            .iter()
            .filter(|row| matches!(row.get("name"), Some(Json::Str(n)) if n == name))
            .map(|row| {
                keys.map(|key| {
                    row.get(key)
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("a {name:?} row has no number {key:?}"))
                })
            })
            .collect();
        assert!(
            !rows.is_empty(),
            "no {name:?} rows in the {} snapshot",
            self.bench
        );
        rows
    }
}

/// One measured case of a per-operation bench.
#[derive(Debug)]
pub struct Sample {
    /// Case name.
    pub name: &'static str,
    /// Workload size (rows, records or repetitions).
    pub size: u64,
    /// Timed iterations.
    pub iters: u64,
    /// Operations over all timed iterations.
    pub ops: u64,
    /// Wall time per operation (or the case's own per-op figure).
    pub ns_per_op: f64,
}

impl Sample {
    /// The sample's snapshot row.
    pub fn row(&self) -> Row {
        vec![
            ("name", Field::Str(self.name)),
            ("size", Field::Int(self.size)),
            ("iters", Field::Int(self.iters)),
            ("ops", Field::Int(self.ops)),
            ("ns_per_op", Field::Fixed(self.ns_per_op, 1)),
        ]
    }
}

/// Times `op`, which returns how many operations it performed: one
/// warm-up call (the pool and the allocator), then `iters` timed calls
/// under `--bench` or one in smoke mode.
pub fn measure(name: &'static str, size: u64, iters: u64, mut op: impl FnMut() -> u64) -> Sample {
    let _ = op();
    let iters = if bench_mode() { iters } else { 1 };
    let mut ops = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        ops += black_box(op());
    }
    Sample {
        name,
        size,
        iters,
        ops,
        ns_per_op: start.elapsed().as_nanos() as f64 / ops.max(1) as f64,
    }
}

/// The bound a gate holds a measured figure to.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// Passes at or above: a throughput.
    Floor(f64),
    /// Passes at or below: a latency.
    Ceiling(f64),
}

impl Bound {
    /// Whether `x` meets the bound.
    fn holds(self, x: f64) -> bool {
        match self {
            Bound::Floor(floor) => x >= floor,
            Bound::Ceiling(ceiling) => x <= ceiling,
        }
    }
}

/// Runs `sample` up to `attempts` times, stopping at the first figure
/// that meets `bound`, and returns the best figure and whether it met the
/// bound. The retries absorb scheduler noise; a real regression misses on
/// every attempt.
pub fn best_of(attempts: usize, bound: Bound, mut sample: impl FnMut() -> f64) -> (f64, bool) {
    let mut best = sample();
    for _ in 1..attempts {
        if bound.holds(best) {
            break;
        }
        let next = sample();
        best = match bound {
            Bound::Floor(_) => best.max(next),
            Bound::Ceiling(_) => best.min(next),
        };
    }
    (best, bound.holds(best))
}

/// How long [`time`] loops under `--bench`.
const WINDOW: Duration = Duration::from_secs(2);

/// Times `f` for a bench with no snapshot and prints its mean wall time
/// per call as `bench <group>/<name>`: one warm-up call, then calls for
/// two seconds under `--bench`; a single call in smoke mode.
pub fn time<T>(group: &str, name: &str, mut f: impl FnMut() -> T) {
    black_box(f());
    if !bench_mode() {
        println!("bench {group}/{name}: ok (smoke, 1 iter)");
        return;
    }
    let start = Instant::now();
    let mut iters = 0u32;
    while start.elapsed() < WINDOW {
        black_box(f());
        iters += 1;
    }
    let per_iter = start.elapsed() / iters;
    println!("bench {group}/{name}: {per_iter:?}/iter ({iters} iters)");
}

/// A gate's check: re-measures against the committed snapshot, true on a pass.
pub type Check = fn(&Snapshot) -> bool;

/// A bench's `main`. With `--check <snapshot>` it reads the committed
/// snapshot, which must be one `bench` wrote, and runs the gate's check
/// on it; a failed check prints the gate's message and exits 1.
/// Otherwise it measures with `run`, prints the snapshot and, with
/// `--out <path>`, writes it to `path`.
pub fn main(bench: &str, run: impl FnOnce() -> Vec<Row>, gate: Option<(Check, &str)>) {
    let (mut out, mut check) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // Any other argument is a harness flag (`--bench`, filters): ignored.
        match flag.as_str() {
            "--out" => out = Some(args.next().expect("--out takes a path")),
            "--check" => check = Some(args.next().expect("--check takes a snapshot path")),
            _ => {}
        }
    }
    if let Some(path) = check {
        let (check, failure) = gate.unwrap_or_else(|| panic!("bench {bench} has no --check gate"));
        let snapshot = Snapshot::read(&path);
        assert_eq!(snapshot.bench, bench, "{path} is not a {bench} snapshot");
        if !check(&snapshot) {
            eprintln!("{failure}");
            std::process::exit(1);
        }
        return;
    }
    let json = render(bench, &run());
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).expect("write the snapshot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_rows_read_back_to_the_same_values() {
        let point = Sample {
            name: "point_get",
            size: 1_000,
            iters: 800,
            ops: 800_000,
            ns_per_op: 346.1,
        };
        let commit = vec![
            ("name", Field::Str("commit")),
            ("threads", Field::Int(16)),
            ("commits_per_sec", Field::Fixed(27_938.9, 1)),
            ("fsyncs_per_commit", Field::Fixed(0.123, 3)),
        ];
        let text = render("roundtrip", &[point.row(), commit, point.row()]);
        let snapshot = Snapshot::parse(&text).expect("the writer's output parses");
        assert_eq!(snapshot.bench, "roundtrip");
        assert_eq!(
            snapshot.rows("point_get", ["size", "iters", "ops", "ns_per_op"]),
            vec![[1_000.0, 800.0, 800_000.0, 346.1]; 2]
        );
        assert_eq!(
            snapshot.rows(
                "commit",
                ["threads", "commits_per_sec", "fsyncs_per_commit"]
            ),
            vec![[16.0, 27_938.9, 0.123]]
        );
        // One row per line, laid out as the committed snapshots are.
        assert!(text.contains(
            "    {\"name\": \"point_get\", \"size\": 1000, \"iters\": 800, \"ops\": 800000, \"ns_per_op\": 346.1},\n"
        ));
        assert!(text.contains(
            "    {\"name\": \"commit\", \"threads\": 16, \"commits_per_sec\": 27938.9, \"fsyncs_per_commit\": 0.123},\n"
        ));
        assert!(text.ends_with("\"ns_per_op\": 346.1}\n  ]\n}\n"));
    }

    #[test]
    fn every_committed_snapshot_yields_the_rows_its_consumer_reads() {
        let read = |file: &str, bench: &str| {
            let snapshot = Snapshot::read(file);
            assert_eq!(snapshot.bench, bench, "{file}");
            snapshot
        };
        let sizes =
            |rows: Vec<[f64; 2]>| rows.iter().map(|[key, _]| *key as u64).collect::<Vec<_>>();

        let obs = read("BENCH_obs.json", "obs");
        assert_eq!(
            sizes(obs.rows("point_get", ["size", "ns_per_op"])),
            [1_000, 10_000, 50_000]
        );

        let txn = read("BENCH_txn.json", "txn");
        assert_eq!(
            sizes(txn.rows("commit", ["threads", "commits_per_sec"])),
            [1, 4, 16]
        );

        let server = read("BENCH_server.json", "server");
        let closed = server.rows("closed", ["conns", "rps"]);
        assert!(closed
            .iter()
            .any(|[conns, rps]| *conns == 16.0 && *rps > 0.0));

        let chaos = read("BENCH_chaos.json", "chaos");
        assert_eq!(chaos.rows("sweep", ["lost", "pinned_frames"]), [[0.0, 0.0]]);

        let wal = read("BENCH_wal.json", "wal");
        for name in [
            "doc_commit_mem",
            "doc_commit_disk_wal",
            "wal_bytes_per_commit",
        ] {
            assert_eq!(wal.rows(name, ["size", "ns_per_op"]).len(), 1, "{name}");
        }

        let btree = read("BENCH_btree_read.json", "btree_read");
        for name in [
            "full_scan",
            "prefix_scan",
            "engine_m2_descendant",
            "engine_m4_descendant",
        ] {
            assert!(
                !btree.rows(name, ["size", "ns_per_op"]).is_empty(),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no \"commit\" rows")]
    fn a_gate_reading_rows_that_are_not_there_panics() {
        Snapshot::parse(&render("obs", &[]))
            .unwrap()
            .rows("commit", ["threads"]);
    }

    #[test]
    fn malformed_snapshots_are_errors() {
        assert!(Snapshot::parse("{\"bench\": \"obs\"}").is_err());
        assert!(Snapshot::parse("{\"results\": []}").is_err());
        assert!(Snapshot::parse("{\"bench\": \"obs\", \"results\": [").is_err());
    }

    #[test]
    fn best_of_stops_at_the_first_pass_and_keeps_the_best() {
        let mut figures = [5.0, 9.0, 7.0].into_iter();
        assert_eq!(
            best_of(3, Bound::Floor(8.0), || figures.next().unwrap()),
            (9.0, true)
        );
        assert_eq!(
            figures.next(),
            Some(7.0),
            "stopped after the passing attempt"
        );

        let mut figures = [5.0, 3.0, 4.0].into_iter();
        assert_eq!(
            best_of(3, Bound::Ceiling(1.0), || figures.next().unwrap()),
            (3.0, false)
        );
        assert_eq!(figures.next(), None, "every attempt ran");
    }
}
