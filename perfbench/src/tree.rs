//! `tree-cold-llm`: a skewed corpus tree scanned cold by the multi-file
//! `grepo` path under a sleeping 1 ms oracle round-trip.
//!
//! This is the paper's LLM regime: oracle waits set the pace.  Each timed
//! scan starts from a fresh answer log and a fresh shared session (cold),
//! because warm re-scans of the same tree proved unsteady.  It loads the
//! oracle plane (batching, overlapped resolution, answer-log writes) and
//! sub-file range splitting of the one giant file.

use std::hint::black_box;
use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use semre::workloads::{CorpusTree, CorpusTreeConfig};
use semre::{LineChunks, SemRegexBuilder, SimLlmOracle, DEFAULT_STREAM_CHUNK_BYTES};
use semre_grep::cli::{expand_targets, run_paths, CliOptions, CliOutcome};
use semre_grep::{walk, RangeReader, WalkOptions};

use crate::common::{
    floor, median, median_time, peak_rss_mb, quantile, ratio, secs, stat_field, time_s, Args,
    Calibration, Report, RunDir,
};

/// Regular files of the tree, their mean line count, and the lines of
/// the giant file whose lines each ask the oracle a fresh question.
const FILES: usize = 48;
const MEAN_LINES: usize = 60;
const GIANT_LINES: usize = 4000;
const PATTERN: &str = r"Subject: .*(?<Medicine name>: [a-z]+).*";
/// Simulated oracle round-trip per backend batch, in µs.
const DELAY_US: u64 = 1000;
const WORKERS: usize = 2;
const ORACLE_THREADS: usize = 2;
/// Set-ups timed for `setup_s` after each timed scan past the first
/// `RSS_AFTER_SCANS`.
const SETUP_ROUNDS_PER_SCAN: usize = 4;
/// Every scan starts threads, and each new thread may take a fresh
/// allocator arena, so the peak resident set grows with the number of
/// scans a run fits in.  It is read after a fixed number of them, which
/// every run reaches.
const RSS_AFTER_SCANS: usize = 10;
const WARM_SCANS: usize = 2;
const PROBE_ROUNDS: usize = 5;

struct Tree {
    root: PathBuf,
    lines: usize,
    files: Vec<(PathBuf, Vec<u8>)>,
    split_bytes: u64,
}

fn scan_args(tree: &Tree, log: &Path, stats: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--batched",
        "--threads",
        &WORKERS.to_string(),
        "--oracle-threads",
        &ORACLE_THREADS.to_string(),
        "--oracle-delay",
        &DELAY_US.to_string(),
        "--split-bytes",
        &tree.split_bytes.to_string(),
        "--answer-log",
        &log.display().to_string(),
    ]
    .map(str::to_owned)
    .to_vec();
    if stats {
        args.push("--stats".to_owned());
    }
    args
}

/// The set-up of one scan, as `grepo` does it before scanning: option
/// parsing, the walk, and the compile with the resolver pool.
fn set_up(tree: &Tree, log: &Path) {
    let mut cli = scan_args(tree, log, false);
    cli.extend([PATTERN.to_owned(), tree.root.display().to_string()]);
    let options = CliOptions::parse(cli).expect("the benchmark's own arguments parse");
    black_box(expand_targets(&options));
    black_box(
        SemRegexBuilder::new()
            .batched(true)
            .overlapped(ORACLE_THREADS)
            .build_shared(PATTERN, Arc::new(SimLlmOracle::new()))
            .expect("the tree pattern compiles"),
    );
}

/// What one `grepo` run printed, and when.
struct Scan {
    out: Vec<u8>,
    outcome: CliOutcome,
    /// Seconds from the start of the run to the write that completed each
    /// output line: when a user watching the output sees that line.
    line_s: Vec<f64>,
    elapsed_s: f64,
}

/// An output sink that notes when each line of output was written.
struct TimedOutput {
    started: Instant,
    bytes: Vec<u8>,
    line_s: Vec<f64>,
}

impl Write for TimedOutput {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = secs(self.started.elapsed());
        self.bytes.extend_from_slice(buf);
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.line_s.extend(std::iter::repeat_n(now, lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One `grepo` run as a user waits for it: option parsing, the walk, the
/// compile and the scan.
fn grepo(mut args: Vec<String>, root: &Path) -> Result<Scan, String> {
    args.push(PATTERN.to_owned());
    args.push(root.display().to_string());
    let started = Instant::now();
    let options = CliOptions::parse(args).map_err(|e| e.to_string())?;
    let targets = expand_targets(&options);
    let mut out = TimedOutput {
        started,
        bytes: Vec::new(),
        line_s: Vec::new(),
    };
    let outcome = run_paths(&options, &targets, &mut out).map_err(|e| e.to_string())?;
    Ok(Scan {
        elapsed_s: secs(started.elapsed()),
        out: out.bytes,
        outcome,
        line_s: out.line_s,
    })
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let dir = RunDir::create("tree").map_err(|e| format!("cannot create a run directory: {e}"))?;
    let tree = write_tree(args.seed, dir.path())?;

    // Untimed: the first scans of a process run slower while the page
    // cache, the allocator and the CPU clock settle.
    let mut first: Option<Vec<u8>> = None;
    for warm in 0..WARM_SCANS {
        let log = dir.path().join(format!("warm-{warm}.log"));
        let scan = grepo(scan_args(&tree, &log, false), &tree.root)?;
        let _ = std::fs::remove_file(&log);
        let exit = scan.outcome.exit_code;
        report
            .checks
            .check(exit == 0, || format!("warm-up scan {warm}: exit {exit}"));
        first.get_or_insert(scan.out);
    }
    let deadline = args.deadline(Instant::now());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut line_s: Vec<Vec<f64>> = Vec::new();
    let mut stats: Vec<Vec<String>> = Vec::new();
    let mut index = 0;
    let mut rss = 0.0;
    let mut setup_s = Vec::new();
    let mut calibration = Calibration::new();
    while index < RSS_AFTER_SCANS + 2 || Instant::now() < deadline {
        if index == RSS_AFTER_SCANS {
            rss = peak_rss_mb();
        }
        // In the traced run every other scan carries `--stats`.
        let traced = args.trace && index % 2 == 1;
        let log = dir.path().join(format!("answers-{index}.log"));
        let result = grepo(scan_args(&tree, &log, traced), &tree.root);
        let _ = std::fs::remove_file(&log);
        let scan = match result {
            Ok(scan) => scan,
            Err(e) => {
                report.checks.check(false, || format!("scan {index}: {e}"));
                index += 1;
                continue;
            }
        };
        let same = first.as_ref() == Some(&scan.out);
        let exit = scan.outcome.exit_code;
        report.checks.check(same && exit == 0, || {
            format!("scan {index}: exit {exit}, or its output differs from the warm-up scan's")
        });
        if traced {
            traced_s.push(scan.elapsed_s);
            stats.push(scan.outcome.stderr);
        } else {
            untraced_s.push(scan.elapsed_s);
            line_s.resize(scan.line_s.len(), Vec::new());
            for (samples, s) in line_s.iter_mut().zip(scan.line_s) {
                samples.push(s);
            }
            // Once the resident set is read, set-ups are timed between
            // the scans, so their samples span the run as the scans do.
            if index >= RSS_AFTER_SCANS {
                let log = dir.path().join("set-up.log");
                for _ in 0..SETUP_ROUNDS_PER_SCAN {
                    setup_s.push(time_s(|| set_up(&tree, &log)));
                }
                calibration.sample();
            }
        }
        index += 1;
    }
    if args.trace {
        report.set(
            "trace.overhead_frac",
            median(&traced_s) / median(&untraced_s) - 1.0,
        );
        set_trace_metrics(&tree, &stats, median(&traced_s), report);
    } else {
        // Each output line's fastest time to output over the scans, and
        // the fastest scan: every scan does the same work, and a busy host
        // only adds to the CPU part of it.  The scans wait on the oracle's
        // sleeps, which do not slow with the host, so they are not scaled;
        // set-up is CPU work and is scaled like the paper workloads' times.
        let to_output: Vec<f64> = line_s.iter().map(|samples| floor(samples)).collect();
        report.set("setup_s", calibration.scale(median(&setup_s)));
        report.set("lines_per_s", tree.lines as f64 / floor(&untraced_s));
        report.set("p50_ms", quantile(&to_output, 0.5) * 1e3);
        report.set("p99_ms", quantile(&to_output, 0.99) * 1e3);
        report.set("peak_rss_mb", rss);
    }
    check_against_references(&tree, first.as_deref(), report)
}

fn write_tree(seed: u64, dir: &Path) -> Result<Tree, String> {
    let config = CorpusTreeConfig {
        seed,
        files: FILES,
        mean_lines: MEAN_LINES,
        ..CorpusTreeConfig::default()
    };
    let generated = CorpusTree::generate_skewed(&config, GIANT_LINES);
    let root = dir.join("tree");
    generated
        .write_to(&root)
        .map_err(|e| format!("cannot write the tree: {e}"))?;
    let giant = generated
        .files
        .iter()
        .map(|f| f.contents.len() as u64)
        .max()
        .unwrap_or(0);
    Ok(Tree {
        root,
        lines: generated.total_lines,
        files: generated
            .files
            .into_iter()
            .map(|f| (f.path, f.contents))
            .collect(),
        // Small enough to cut the giant file into about four ranges.
        split_bytes: (giant / 4).max(4096),
    })
}

/// The scan output must be byte-identical to a sequential scan without
/// the resolver pool, and to a scan by the dynamic-programming baseline.
fn check_against_references(
    tree: &Tree,
    scanned: Option<&[u8]>,
    report: &mut Report,
) -> Result<(), String> {
    let scanned = scanned.ok_or("no scan completed")?;
    let references: [(&str, &[&str]); 2] = [
        ("sequential scan", &["--batched", "--threads", "1"]),
        ("DP baseline", &["--baseline", "--threads", "2"]),
    ];
    for (name, cli) in references {
        let cli = cli.iter().map(|s| (*s).to_owned()).collect();
        let reference = grepo(cli, &tree.root)?;
        let lines = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count();
        let exit = reference.outcome.exit_code;
        report
            .checks
            .check(reference.out == scanned && exit == 0, || {
                format!(
                "{name}: {} matched line(s), exit {exit}, but the timed scans printed {} line(s)",
                lines(&reference.out),
                lines(scanned)
            )
            });
    }
    Ok(())
}

/// Per-layer metrics: the `--stats` counters of the traced scans (median
/// over scans), and the walk and line splitting timed from outside.
fn set_trace_metrics(tree: &Tree, stats: &[Vec<String>], scan_s: f64, report: &mut Report) {
    let field = |prefix: &str, key: &str| -> f64 {
        let values: Vec<f64> = stats
            .iter()
            .filter_map(|s| stat_field(s, prefix, key))
            .collect();
        median(&values)
    };
    let lines = tree.lines as f64;
    let backend_batches = field("resolver:", "batches");
    let wait_ns = backend_batches * DELAY_US as f64 * 1e3;
    report.set(
        "oracle.backend.calls_per_line",
        ratio(field("shared_session:", "backend_calls"), lines),
    );
    report.set(
        "oracle.backend.keys_per_kline",
        ratio(1000.0 * field("shared_session:", "backend_keys"), lines),
    );
    report.set("oracle.backend.ns_per_line", ratio(wait_ns, lines));
    report.set("oracle.backend.wait_share", ratio(wait_ns / 1e9, scan_s));
    report.set(
        "oracle.batch.keys_submitted_per_line",
        ratio(field("batches=", "keys_submitted"), lines),
    );
    report.set("oracle.batch.dedup_ratio", field("batches=", "dedup_ratio"));
    report.set("oracle.batch.mean_batch", field("batches=", "mean_batch"));
    report.set("oracle.overlap.backend_batches", backend_batches);
    report.set("oracle.overlap.coalesced", field("resolver:", "coalesced"));
    report.set("oracle.overlap.suspends", field("resolver:", "suspends"));
    report.set(
        "oracle.overlap.high_water",
        field("resolver:", "high_water"),
    );
    report.set(
        "oracle.persist.appended",
        field("answer_store:", "appended"),
    );
    report.set("oracle.persist.syncs", field("answer_store:", "syncs"));
    report.set(
        "oracle.persist.log_bytes",
        field("answer_store:", "file_bytes"),
    );
    let split_files = field("algorithm=", "split_files");
    report.set("grep.tree.split_files", split_files);
    report.set(
        "grep.tree.units",
        field("algorithm=", "files") - split_files + field("algorithm=", "ranges"),
    );

    let walk_s = median_time(PROBE_ROUNDS, || {
        black_box(walk(&tree.root, &WalkOptions::default()));
    });
    report.set("grep.walk.ms", walk_s * 1e3);
    let split_s = median_time(PROBE_ROUNDS, || {
        for (_, contents) in &tree.files {
            split_lines(contents, tree.split_bytes);
        }
    });
    report.set("grep.stream.split_ns_per_line", ratio(split_s * 1e9, lines));
}

/// Splits `contents` into lines as a scan unit would: whole, or in
/// `split_bytes` ranges through `RangeReader` when the file is larger.
fn split_lines(contents: &[u8], split_bytes: u64) -> usize {
    let len = contents.len() as u64;
    let mut lines = 0;
    let mut count = |mut chunks: LineChunks<&mut dyn std::io::Read>| {
        while let Some(batch) = chunks.next_batch().expect("in-memory reads cannot fail") {
            lines += black_box(batch).len();
        }
    };
    if len <= split_bytes {
        count(LineChunks::new(
            &mut &contents[..],
            DEFAULT_STREAM_CHUNK_BYTES,
        ));
    } else {
        let mut start = 0;
        while start < len {
            let end = (start + split_bytes).min(len);
            let mut range = RangeReader::new(Cursor::new(contents), start, end)
                .expect("in-memory seeks cannot fail");
            count(LineChunks::new(&mut range, DEFAULT_STREAM_CHUNK_BYTES));
            start = end;
        }
    }
    lines
}
