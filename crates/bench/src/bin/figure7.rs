//! Regenerates the paper's Figure 7 table.
//!
//! ```text
//! figure7 [--scale F] [--budget-secs S] [--pool-mb M]
//! ```
//!
//! Defaults are CI-friendly (scale 1.0 ≈ 0.150 MB of DBLP, 5 s budget,
//! 4 MiB pool). To approach the paper's setting use
//! `--scale 1663 --budget-secs 2400 --pool-mb 20`.

use std::time::Duration;
use xmldb_bench::{run_figure7, Figure7Config};

fn main() {
    let mut config = Figure7Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--scale" => config.dblp_scale = value(&mut args).parse().expect("numeric --scale"),
            "--budget-secs" => {
                config.budget =
                    Duration::from_secs_f64(value(&mut args).parse().expect("numeric budget"))
            }
            "--pool-mb" => {
                config.pool_bytes = value(&mut args)
                    .parse::<usize>()
                    .expect("numeric --pool-mb")
                    << 20
            }
            "--help" | "-h" => {
                println!("usage: figure7 [--scale F] [--budget-secs S] [--pool-mb M]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "generating DBLP (scale {}), shredding, running 5 engines × 5 efficiency tests...",
        config.dblp_scale
    );
    let table = run_figure7(&config);
    println!("{}", table.render());
}
