//! The benchmark's metric names and units, in the order they are printed.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the `benchmark_json_lists_every_metric` test keeps the two in step.

/// Metrics a user of the system sees, printed with tracing off.  Every
/// workload reports every one of them; `perfbench/README.md` says what the
/// measured operation is on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lines_per_s", "lines/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The nine Table 1 benchmarks, spelled as metric-name suffixes (a comma
/// is not allowed in a metric name, so `spam,1` becomes `spam-1`).
pub const BENCH_SUFFIXES: &[&str] = &[
    "pass", "file", "id", "edom", "spam-1", "spam-2", "wdom-1", "wdom-2", "ip",
];

/// The `core.eval` metrics reported in total and per Table 1 benchmark.
pub const EVAL_PER_BENCH: &[(&str, &str)] = &[
    ("core.eval.match_ns_per_survivor", "ns"),
    ("core.eval.find_ns_per_line", "ns"),
    ("core.eval.positions_per_survivor", "count"),
    ("core.eval.vertices_alive_per_survivor", "count"),
];

/// Per-layer metrics other than the per-benchmark `core.eval` ones.
const LAYERS: &[(&str, &str)] = &[
    ("automata.prescan.ns_per_line", "ns"),
    ("automata.prescan.reject_frac", "frac"),
    ("automata.dfa.ns_per_line", "ns"),
    ("automata.dfa.reject_frac", "frac"),
    ("automata.dfa.states", "count"),
    ("oracle.backend.calls_per_line", "calls/line"),
    ("oracle.backend.ns_per_line", "ns"),
    ("oracle.backend.wait_share", "frac"),
    ("oracle.backend.keys_per_kline", "keys/kline"),
    ("oracle.batch.keys_submitted_per_line", "keys/line"),
    ("oracle.batch.dedup_ratio", "frac"),
    ("oracle.batch.mean_batch", "keys"),
    ("oracle.overlap.backend_batches", "count"),
    ("oracle.overlap.coalesced", "count"),
    ("oracle.overlap.suspends", "count"),
    ("oracle.overlap.high_water", "count"),
    ("oracle.persist.appended", "count"),
    ("oracle.persist.syncs", "count"),
    ("oracle.persist.replay_ms", "ms"),
    ("oracle.persist.replayed", "count"),
    ("oracle.persist.log_bytes", "bytes"),
    ("grep.walk.ms", "ms"),
    ("grep.stream.split_ns_per_line", "ns"),
    ("grep.tree.units", "count"),
    ("grep.tree.split_files", "count"),
    ("daemon.ping_us", "us"),
    ("daemon.compile_us", "us"),
    ("daemon.cache.hits", "count"),
    ("daemon.tenant.persisted_hits", "count"),
    ("daemon.server_overhead_share", "frac"),
    ("trace.overhead_frac", "frac"),
    ("host.calibration_us", "us"),
];

/// Every per-layer metric with its unit, printed by every traced run.  A
/// layer that a workload does not load reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = Vec::new();
    for &(name, unit) in EVAL_PER_BENCH {
        all.push((name.to_owned(), unit));
        for bench in BENCH_SUFFIXES {
            all.push((format!("{name}.{bench}"), unit));
        }
    }
    all.extend(LAYERS.iter().map(|&(name, unit)| (name.to_owned(), unit)));
    all
}

/// The metric-name suffix of a Table 1 benchmark name.
pub fn bench_suffix(name: &str) -> String {
    name.replace(',', "-")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let printed: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &printed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metric_entries = json.matches("\"unit\":").count();
        assert_eq!(
            metric_entries,
            printed.len(),
            "BENCHMARK.json has extra metrics"
        );
        assert!(printed.len() <= 128 + END_TO_END.len());
    }
}
