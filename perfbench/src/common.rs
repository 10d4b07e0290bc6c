//! Argument parsing, result reporting and the small statistics the
//! workloads share.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::metrics;

/// The command line: `--workload NAME --seed N --seconds S --trace 0|1`.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload paper-lines|paper-find|tree-cold-llm|daemon-warm \
--seed N --seconds S --trace 0|1";

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects a number")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".to_owned());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace expects 0 or 1".to_owned()),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// When the timed region that started at `start` ends.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// Operations attempted and failed, with the first few failures kept for
/// the error report.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation; `ok == false` counts it as failed and keeps
    /// `what()` as a message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed, keeping
    /// `what()` as the message when any did.
    pub fn record(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.fail(what());
            self.failed += failed - 1;
        }
    }

    /// Counts an already-attempted operation as failed.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 10 {
            self.messages.push(message);
        }
    }
}

/// One run's result: the checks and the metrics by name.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Prints the result line with the metric set `trace` selects; a
    /// per-layer metric the workload did not set reads 0.  Returns
    /// whether every check passed and every end-to-end metric is a
    /// positive finite number.
    pub fn print(&self, trace: bool) -> bool {
        let mut correct = self.checks.failed == 0 && self.checks.attempted > 0;
        let selected: Vec<(String, &str)> = if trace {
            metrics::per_layer()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|&(name, unit)| (name.to_owned(), unit))
                .collect()
        };
        let mut fields = Vec::with_capacity(selected.len());
        for (name, unit) in &selected {
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                eprintln!("perfbench: {name} is not finite");
                correct = false;
                value = 0.0;
            }
            if !trace && value <= 0.0 {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                correct = false;
            }
            eprintln!("{name:<48} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for message in &self.checks.messages {
            eprintln!("perfbench: FAILED: {message}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.attempted.max(1),
            self.checks.failed,
            fields.join(", ")
        );
        correct
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The time on the reference host of one run of the calibration kernel,
/// in seconds: about its fastest time on the 2-vCPU VM the benchmark was
/// first measured on, so that scaled figures read close to raw ones.
const CALIBRATION_REFERENCE_S: f64 = 95e-6;

/// The host's speed, measured by a fixed kernel that the benchmark owns.
///
/// On a shared host, CPU-bound work runs up to about 2× slower while
/// other tenants load the machine, for seconds or minutes at a time.  The
/// floor of a chunk's time over a run removes the short bursts of that; a
/// run that sees no quiet moment at all reads slow regardless.  The kernel
/// below is timed many times across the same run, on the thread that does
/// the timed work, and its floor slows with the program's, if less.  So a
/// CPU-bound time measured on that thread is reported scaled by
/// `CALIBRATION_REFERENCE_S` over the kernel's floor: the time the work
/// would take on a host where the kernel takes the reference time.  The
/// kernel does not change with the program, so a change to the program
/// moves the scaled figures one for one.
#[derive(Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Words the kernel formats, sorts and groups per run.
    const WORDS: u32 = 400;
    /// Kernel runs per call to `sample`.
    const RUNS: usize = 16;

    pub fn new() -> Calibration {
        Calibration::default()
    }

    /// One run of the kernel: short strings formatted, sorted and grouped
    /// by prefix in a B-tree.  Of the kernels tried (random reads in
    /// tables of 256 KiB and 4 MiB, a streaming sum, hash-map updates,
    /// fresh allocations, a bit-set graph walk), this allocation- and
    /// branch-heavy one is the one whose slow-down under host load
    /// followed the program's most closely.
    fn kernel() -> usize {
        let mut words: Vec<String> = (0..Self::WORDS)
            .map(|i| format!("w{:x}-{}", i.wrapping_mul(0x9e37_79b9), i % 7))
            .collect();
        words.sort();
        let mut groups = BTreeMap::new();
        for word in &words {
            *groups.entry(&word[..3]).or_insert(0) += word.len();
        }
        groups.len()
    }

    /// Times `RUNS` runs of the kernel.
    pub fn sample(&mut self) {
        for _ in 0..Self::RUNS {
            let started = Instant::now();
            black_box(Self::kernel());
            self.samples.push(secs(started.elapsed()));
        }
    }

    /// The kernel's fastest time over every sample, in seconds.
    pub fn floor_s(&self) -> f64 {
        floor(&self.samples)
    }

    /// `time_s`, a time measured on this host over the same run as the
    /// samples, scaled to the reference host.
    pub fn scale(&self, time_s: f64) -> f64 {
        time_s * CALIBRATION_REFERENCE_S / self.floor_s()
    }
}

/// The smallest of `values` (0 for none).
pub fn floor(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = at.floor() as usize;
    let high = at.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// Logs on standard error how long a phase of the run took.
pub fn note(phase: &str, started: Instant) {
    eprintln!(
        "perfbench: {phase}: {:.3} s",
        started.elapsed().as_secs_f64()
    );
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The wall time of one call of `f`, in seconds.
pub fn time_s(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    secs(started.elapsed())
}

/// Runs `f` `rounds` times and returns the median wall time in seconds.
pub fn median_time(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds.max(1)).map(|_| time_s(&mut f)).collect();
    median(&samples)
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reads `key=value` out of whitespace-separated `key=value` lines, from
/// the first line that starts with `prefix`.
pub fn stat_field(lines: &[String], prefix: &str, key: &str) -> Option<f64> {
    let line = lines.iter().find(|line| line.starts_with(prefix))?;
    let wanted = format!("{key}=");
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(wanted.as_str()))
        .and_then(|value| value.parse().ok())
}

/// A scratch directory of one run, under `.perfbench-runs/` in the current
/// directory, removed when dropped.
///
/// The name carries a per-call nonce (process id, clock and a process-wide
/// counter), and the directory is created with `create_dir`, which fails
/// rather than reuse a directory that exists: two runs started at once,
/// in one process or two, never share a tree or an answer log.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

static NONCE: AtomicU64 = AtomicU64::new(0);

impl RunDir {
    pub fn create(label: &str) -> std::io::Result<RunDir> {
        let parent = Path::new(".perfbench-runs");
        loop {
            // Re-created on every attempt: a concurrent run that just
            // finished may have removed the parent while it was empty.
            std::fs::create_dir_all(parent)?;
            let clock = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos());
            let nonce = format!(
                "{label}-{}-{clock:x}-{}",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            );
            let path = parent.join(nonce);
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(RunDir { path }),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::AlreadyExists | std::io::ErrorKind::NotFound
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let ok = args("--workload paper-lines --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.trace), (7, true));
        assert!(args("--workload x --seed 7 --seconds 2").is_err());
        assert!(args("--workload x --seed 7 --seconds 2 --trace 2").is_err());
        assert!(args("--workload x --seed 7 --seconds 2 --trace 0 --bogus 1").is_err());
    }

    #[test]
    fn stat_fields_are_found() {
        let lines = vec!["resolver: threads=2 batches=17 high_water=3".to_owned()];
        assert_eq!(stat_field(&lines, "resolver:", "batches"), Some(17.0));
        assert_eq!(stat_field(&lines, "resolver:", "missing"), None);
        assert_eq!(stat_field(&lines, "nope:", "batches"), None);
    }
}
