#![warn(missing_docs)]

//! Benchmark support: the Figure 7 engine lineup and table runner, and
//! the [`harness`] every bench target runs on.
//!
//! The paper's Figure 7 compares the five best student engines on five
//! secret efficiency queries over DBLP, under memory and time budgets,
//! with stopped engines "assigned 2400 (4800) seconds". We reproduce the
//! *spread* with five configurations of this code base (DESIGN.md §2):
//!
//! | engine | configuration |
//! |--------|---------------|
//! | 1 | milestone 4, accurate statistics |
//! | 2 | milestone 4, **corrupted statistics** (the unlucky-estimates engine) |
//! | 3 | milestone 3 heuristic |
//! | 4 | milestone 2 interpreter (indexes, no algebra) |
//! | 5 | naive full-scan interpreter |

pub mod harness;

use std::time::Duration;
use xmldb_core::{Database, EngineKind, QueryOptions};
use xmldb_storage::EnvConfig;
use xmldb_testbed::corpus::efficiency_queries;
use xmldb_testbed::run_budgeted;
use xmldb_xasr::Statistics;

/// Configuration of a Figure 7 run.
#[derive(Debug, Clone)]
pub struct Figure7Config {
    /// DBLP scale factor (1.0 ≈ 0.150 MB; the paper used 250 MB ≈ 1 663).
    pub dblp_scale: f64,
    /// Per-query wall-clock budget (the paper's 2400 s, scaled down).
    pub budget: Duration,
    /// Buffer-pool byte budget (the paper's 20 MB).
    pub pool_bytes: usize,
}

impl Default for Figure7Config {
    fn default() -> Self {
        Figure7Config {
            dblp_scale: 1.0,
            budget: Duration::from_secs(5),
            pool_bytes: 4 << 20,
        }
    }
}

/// One engine column of the table.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Display label ("1".."5" in the paper).
    pub label: String,
    /// Engine implementation.
    pub engine: EngineKind,
    /// Per-query options (engine 2's corrupted statistics).
    pub options: QueryOptions,
}

/// Inverts the per-label counts so rare labels look common and vice versa
/// — the "unlucky estimates" that made the paper's engine 2 pick "an
/// unoptimal query plan (with the very unselective join at the bottom)".
pub fn corrupted_stats(stats: &Statistics) -> Statistics {
    let mut out = stats.clone();
    if let (Some(&max), Some(&min)) = (
        stats.label_counts.values().max(),
        stats.label_counts.values().min(),
    ) {
        for (_, count) in out.label_counts.iter_mut() {
            *count = max + min - *count;
        }
    }
    // Also hide the depth signal used for descendant-join estimates.
    out.depth_sum = out.node_count; // avg depth ≈ 1
    out
}

/// The five engine configurations, given the real statistics of the
/// benchmark document (engine 2 gets the corrupted copy).
pub fn figure7_engines(real_stats: &Statistics) -> Vec<EngineRow> {
    vec![
        EngineRow {
            label: "1".into(),
            engine: EngineKind::M4CostBased,
            options: QueryOptions::default(),
        },
        EngineRow {
            label: "2".into(),
            engine: EngineKind::M4CostBased,
            options: QueryOptions {
                stats_override: Some(corrupted_stats(real_stats)),
                ..QueryOptions::default()
            },
        },
        EngineRow {
            label: "3".into(),
            engine: EngineKind::M3Algebraic,
            options: QueryOptions::default(),
        },
        EngineRow {
            label: "4".into(),
            engine: EngineKind::M2Storage,
            options: QueryOptions::default(),
        },
        EngineRow {
            label: "5".into(),
            engine: EngineKind::NaiveScan,
            options: QueryOptions::default(),
        },
    ]
}

/// One table cell: charged seconds, with the timeout flag.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Charged seconds (measured, or the cap on timeout).
    pub seconds: f64,
    /// Stopped at the budget.
    pub timed_out: bool,
}

/// The whole table.
#[derive(Debug, Clone)]
pub struct Figure7Table {
    /// Efficiency-test names (column headers).
    pub query_names: Vec<String>,
    /// `(engine label, cells, total seconds)`.
    pub rows: Vec<(String, Vec<Cell>, f64)>,
    /// The configuration that produced this table.
    pub config: Figure7Config,
}

/// Builds the benchmark database (DBLP at the configured scale) and runs
/// the table.
pub fn run_figure7(config: &Figure7Config) -> Figure7Table {
    let db = Database::in_memory_with(EnvConfig::with_pool_bytes(config.pool_bytes));
    let xml = xmldb_datagen::generate_dblp(&xmldb_datagen::DblpConfig::scaled(config.dblp_scale));
    db.load_document("dblp", &xml)
        .expect("generated DBLP loads");
    run_figure7_on(&db, config)
}

/// Runs the table against an already-loaded database (document `dblp`).
pub fn run_figure7_on(db: &Database, config: &Figure7Config) -> Figure7Table {
    let stats = db.store("dblp").expect("dblp loaded").stats().clone();
    let queries = efficiency_queries();
    let query_names: Vec<String> = queries.iter().map(|(n, _)| n.to_string()).collect();
    let mut rows = Vec::new();
    for engine in figure7_engines(&stats) {
        let mut cells = Vec::new();
        let mut total = 0.0;
        for (_, query) in &queries {
            let cell = match run_budgeted(
                db,
                "dblp",
                query,
                engine.engine,
                &engine.options,
                config.budget,
            ) {
                Some((Ok(_), elapsed)) => Cell {
                    seconds: elapsed.as_secs_f64(),
                    timed_out: false,
                },
                Some((Err(e), _)) => {
                    panic!("engine {} failed on {query}: {e}", engine.label)
                }
                // "The engines that needed more than 2400 seconds ... were
                // stopped and assigned 2400 seconds."
                None => Cell {
                    seconds: config.budget.as_secs_f64(),
                    timed_out: true,
                },
            };
            total += cell.seconds;
            cells.push(cell);
        }
        rows.push((engine.label, cells, total));
    }
    Figure7Table {
        query_names,
        rows,
        config: config.clone(),
    }
}

impl Figure7Table {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Figure 7 — Timing of the five engines (DBLP scale {}, budget {:.0} s, pool {} MiB)\n\n",
            self.config.dblp_scale,
            self.config.budget.as_secs_f64(),
            self.config.pool_bytes >> 20,
        ));
        out.push_str(&format!("{:<8}", "Engine"));
        for (i, _) in self.query_names.iter().enumerate() {
            out.push_str(&format!("{:>12}", format!("Test {}", i + 1)));
        }
        out.push_str(&format!("{:>12}\n", "Total"));
        for (label, cells, total) in &self.rows {
            out.push_str(&format!("{label:<8}"));
            for cell in cells {
                let rendered = if cell.timed_out {
                    format!("{:.0}*", cell.seconds)
                } else {
                    format!("{:.3}", cell.seconds)
                };
                out.push_str(&format!("{rendered:>12}"));
            }
            out.push_str(&format!("{:>12.3}\n", total));
        }
        out.push_str("\n(*) stopped at the budget and assigned the cap, as in the paper.\n");
        out
    }

    /// The per-engine totals, in row order.
    pub fn totals(&self) -> Vec<f64> {
        self.rows.iter().map(|(_, _, t)| *t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_stats_invert_skew() {
        let mut stats = Statistics {
            node_count: 100,
            depth_sum: 350,
            ..Statistics::default()
        };
        stats.label_counts.insert("author".into(), 90);
        stats.label_counts.insert("volume".into(), 2);
        let bad = corrupted_stats(&stats);
        assert_eq!(bad.label_count("author"), 2);
        assert_eq!(bad.label_count("volume"), 90);
        assert!(bad.avg_depth() < stats.avg_depth());
    }

    #[test]
    fn tiny_figure7_runs_and_engine1_wins() {
        let config = Figure7Config {
            dblp_scale: 0.05,
            budget: Duration::from_secs(10),
            pool_bytes: 2 << 20,
        };
        let table = run_figure7(&config);
        assert_eq!(table.rows.len(), 5);
        assert_eq!(table.query_names.len(), 5);
        let rendered = table.render();
        assert!(rendered.contains("Engine"), "{rendered}");
        // At this tiny scale nothing should time out...
        let totals = table.totals();
        // ...and the naive engine must not beat the cost-based one.
        assert!(
            totals[0] <= totals[4],
            "engine 1 ({:.3}s) should not lose to engine 5 ({:.3}s)\n{rendered}",
            totals[0],
            totals[4]
        );
    }

    /// The robust shape claims of EXPERIMENTS.md's Figure 7 section, at a
    /// small scale and budget: test 3 (the value join) separates milestone
    /// 4 from milestones 2 and 3 by at least 10x and leaves the naive engine
    /// capped or slowest; test 4 (a non-existent label) costs the index- and
    /// statistics-aware engines at most 1 ms. Run in release mode:
    /// `cargo test --release -p xmldb-bench --lib -- --ignored figure7_shape`.
    #[test]
    #[ignore = "runs all five engines; release-mode CI step"]
    fn figure7_shape_claims_hold() {
        let table = run_figure7(&Figure7Config {
            dblp_scale: 0.5,
            budget: Duration::from_secs(2),
            pool_bytes: 4 << 20,
        });
        let rendered = table.render();
        let cell = |engine: usize, test: usize| table.rows[engine - 1].1[test - 1];
        for slower in [3, 4] {
            assert!(
                cell(1, 3).seconds * 10.0 <= cell(slower, 3).seconds,
                "test 3: engine 1 is not 10x faster than engine {slower}\n{rendered}"
            );
        }
        let naive = cell(5, 3);
        assert!(
            naive.timed_out || (1..=4).all(|e| cell(e, 3).seconds <= naive.seconds),
            "test 3: engine 5 is neither capped nor slowest\n{rendered}"
        );
        for engine in [1, 2, 4] {
            assert!(
                cell(engine, 4).seconds <= 0.001,
                "test 4: engine {engine} over 1 ms\n{rendered}"
            );
        }
    }
}
