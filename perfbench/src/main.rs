//! The repository's benchmark: one command that generates a seeded
//! workload, drives it through semre's public entry points, checks every
//! outcome against an independent reference, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) as the
//! last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-lines --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the map
//! from layer to metric to workload.

mod common;
mod daemon;
mod metrics;
mod paper;
mod tree;

use common::{Args, Calibration, Report, USAGE};

/// Calls to `Calibration::sample` for `host.calibration_us`.
const HOST_SAMPLES: usize = 20;

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper-lines" => paper::run(args, paper::Pass::Match, &mut report),
        "paper-find" => paper::run(args, paper::Pass::Find, &mut report),
        "tree-cold-llm" => {
            tree::run(args, &mut report).map_err(|e| format!("tree-cold-llm: {e}"))?
        }
        "daemon-warm" => daemon::run(args, &mut report).map_err(|e| format!("daemon-warm: {e}"))?,
        other => return Err(format!("unknown workload {other}\n{USAGE}")),
    }
    if args.trace {
        // The host's speed at the end of the run: what the end-to-end
        // times of an untraced run are scaled by.
        let mut calibration = Calibration::new();
        for _ in 0..HOST_SAMPLES {
            calibration.sample();
        }
        report.set("host.calibration_us", calibration.floor_s() * 1e6);
    }
    Ok(report)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            if !report.print(args.trace) {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
