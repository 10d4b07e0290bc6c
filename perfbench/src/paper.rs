//! `paper-lines` and `paper-find`: the nine Table 1 SemREs over their
//! seeded spam and Java corpora, with the instant in-process oracles.
//!
//! `paper-lines` times `SemRegex::is_match` on every line (the paper's
//! Table 2 membership setup); `paper-find` times `SemRegex::find_iter` on
//! the same lines.  Both are bound by the prefilter and the evaluator.
//! They are separate workloads so that a change that speeds membership up
//! at the cost of search is caught on the search side by its own bound.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use semre::automata::{compile, LazyDfa, Prescan, Snfa};
use semre::workloads::rng::StdRng;
use semre::workloads::Workbench;
use semre::{Instrumented, Matcher, Oracle, SearchKind, SemRegex, SemRegexBuilder, Semre};

use crate::common::{
    floor, median, median_time, note, peak_rss_mb, quantile, ratio, secs, time_s, Args,
    Calibration, Report,
};
use crate::metrics::bench_suffix;

/// Lines per corpus (spam and Java); each benchmark scans one corpus.
const LINES: usize = 2000;
/// Compiles of the nine handles timed for `setup_s` after every timed
/// pass, so that the set-up samples span the run as the passes do.
const SETUP_ROUNDS_PER_PASS: usize = 4;
/// Lines per benchmark checked against the dynamic-programming baseline,
/// half drawn among lines with a match and half among all lines, and the
/// longest line the sample may hold.  The baseline costs O(|w|³) per test
/// and more per search: a 60-byte line takes up to 4 ms to test and 0.9 s
/// to search, so only lines of a bounded length are sampled.
const DP_SAMPLE: [(usize, usize); 2] = [(8, 160), (4, 40)];
/// Repetitions of each layer probe; the median is reported.
const PROBE_ROUNDS: usize = 5;
/// Lines decided together, as one request: the unit of the latency
/// metrics, and of the samples the throughput is summed from.  A single
/// line can take under 100 ns, too close to the clock's own cost (about
/// 45 ns) to be timed on its own.
const CHUNK_LINES: usize = 16;

/// Which public entry point a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// `SemRegex::is_match` (anchored membership).
    Match,
    /// `SemRegex::find_iter` (unanchored span search).
    Find,
}

struct Bench {
    name: &'static str,
    semre: Semre,
    oracle: Arc<dyn Oracle>,
    lines: Vec<Vec<u8>>,
}

fn generate(seed: u64) -> Vec<Bench> {
    let workbench = Workbench::generate(seed, LINES, LINES);
    workbench
        .benchmarks()
        .into_iter()
        .map(|spec| Bench {
            name: spec.name,
            lines: workbench
                .corpus(spec.dataset)
                .lines()
                .iter()
                .map(|line| line.as_bytes().to_vec())
                .collect(),
            semre: spec.semre,
            oracle: spec.oracle,
        })
        .collect()
}

fn compile_all(
    benches: &[Bench],
    builder: impl Fn() -> SemRegexBuilder,
    oracle: impl Fn(usize) -> Arc<dyn Oracle>,
) -> Vec<SemRegex> {
    benches
        .iter()
        .enumerate()
        .map(|(i, bench)| {
            builder()
                .build_semre_shared(bench.semre.clone(), oracle(i))
                .expect("Table 1 SemREs compile")
        })
        .collect()
}

/// The observable result of one operation on one line: the verdict, or a
/// checksum of every span `find_iter` yields (0 when there is none).
fn outcome(pass: Pass, re: &SemRegex, line: &[u8]) -> u64 {
    match pass {
        Pass::Match => u64::from(re.is_match(line)),
        Pass::Find => re.find_iter(line).fold(0u64, |hash, m| {
            (hash ^ ((m.start() as u64) << 32 | m.end() as u64))
                .wrapping_mul(0x0100_0000_01b3)
                .wrapping_add(1)
        }),
    }
}

fn total_lines(benches: &[Bench]) -> usize {
    benches.iter().map(|b| b.lines.len()).sum()
}

/// Wall-time samples of each chunk of lines, one sample per pass.  What
/// counts is each chunk's fastest pass: the work is the same on every
/// pass, and other processes on the host can only add time to it, so the
/// minimum over many passes is the chunk's cost at the quietest moments
/// of the run.
struct Samples {
    per_group: Vec<Vec<f64>>,
}

impl Samples {
    fn new(groups: usize) -> Samples {
        Samples {
            per_group: vec![Vec::new(); groups],
        }
    }

    fn floors(&self) -> Vec<f64> {
        self.per_group
            .iter()
            .map(|samples| floor(samples))
            .collect()
    }
}

fn chunk_count(benches: &[Bench]) -> usize {
    benches
        .iter()
        .map(|b| b.lines.chunks(CHUNK_LINES).count())
        .sum()
}

/// One pass over every line of every benchmark, timed a chunk at a time.
/// Returns the number of outcomes that differ from `reference`.
fn bulk_pass(
    pass: Pass,
    benches: &[Bench],
    handles: &[SemRegex],
    reference: &[Vec<u64>],
    chunks: &mut Samples,
) -> u64 {
    let mut wrong = 0u64;
    let mut group = chunks.per_group.iter_mut();
    for ((bench, re), expected) in benches.iter().zip(handles).zip(reference) {
        for (lines, want) in bench
            .lines
            .chunks(CHUNK_LINES)
            .zip(expected.chunks(CHUNK_LINES))
        {
            let started = Instant::now();
            for (line, &want) in lines.iter().zip(want) {
                wrong += u64::from(outcome(pass, re, black_box(line)) != want);
            }
            let elapsed = secs(started.elapsed());
            group.next().expect("one group per chunk").push(elapsed);
        }
    }
    wrong
}

pub fn run(args: &Args, pass: Pass, report: &mut Report) {
    let phase = Instant::now();
    let benches = generate(args.seed);
    note("generate", phase);
    let plain = |i: usize| Arc::clone(&benches[i].oracle);
    let handles = compile_all(&benches, SemRegexBuilder::new, plain);
    // The untimed first pass fills the lazy DFA caches and records the
    // outcomes every later pass must reproduce.
    let reference: Vec<Vec<u64>> = benches
        .iter()
        .zip(&handles)
        .map(|(bench, re)| {
            bench
                .lines
                .iter()
                .map(|line| outcome(pass, re, line))
                .collect()
        })
        .collect();
    let lines = total_lines(&benches) as u64;
    note("set-up and reference pass", phase);

    if args.trace {
        trace(args, pass, &benches, &handles, &reference, report);
    } else {
        // Read before the timed passes, whose samples grow with their
        // count: the warmed-up program's memory is what is meant.
        let rss = peak_rss_mb();
        let deadline = args.deadline(Instant::now());
        let mut chunks = Samples::new(chunk_count(&benches));
        let mut setup_s = Vec::new();
        let mut calibration = Calibration::new();
        let mut round = 0;
        while round < 4 || Instant::now() < deadline {
            calibration.sample();
            let wrong = bulk_pass(pass, &benches, &handles, &reference, &mut chunks);
            report.checks.record(lines, wrong, || {
                format!("pass {round}: {wrong} outcome(s) changed")
            });
            for _ in 0..SETUP_ROUNDS_PER_PASS {
                setup_s.push(time_s(|| {
                    black_box(compile_all(&benches, SemRegexBuilder::new, plain));
                }));
            }
            round += 1;
        }
        let raw = chunks.floors();
        eprintln!(
            "perfbench: {round} passes; unscaled: {:.0} lines/s, set-up {:.6} s; calibration floor {:.3} us",
            lines as f64 / raw.iter().sum::<f64>(),
            median(&setup_s),
            calibration.floor_s() * 1e6
        );
        let latencies: Vec<f64> = raw.iter().map(|&t| calibration.scale(t)).collect();
        report.set("setup_s", calibration.scale(median(&setup_s)));
        report.set("lines_per_s", lines as f64 / latencies.iter().sum::<f64>());
        report.set("p50_ms", quantile(&latencies, 0.5) * 1e3);
        report.set("p99_ms", quantile(&latencies, 0.99) * 1e3);
        report.set("peak_rss_mb", rss);
    }
    note("timed passes", phase);
    check_against_dp(args.seed, pass, &benches, &reference, report);
    note("DP baseline check", phase);
}

/// Checks a seeded sample of outcomes against the dynamic-programming
/// baseline, an independent matching algorithm.
fn check_against_dp(
    seed: u64,
    pass: Pass,
    benches: &[Bench],
    reference: &[Vec<u64>],
    report: &mut Report,
) {
    let dp = compile_all(
        benches,
        || SemRegexBuilder::new().dp_baseline(true),
        |i| Arc::clone(&benches[i].oracle),
    );
    let (count, max_len) = DP_SAMPLE[pass as usize];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
    for ((bench, re), expected) in benches.iter().zip(&dp).zip(reference) {
        let short: Vec<usize> = (0..bench.lines.len())
            .filter(|&i| bench.lines[i].len() <= max_len)
            .collect();
        let positive: Vec<usize> = short
            .iter()
            .copied()
            .filter(|&i| expected[i] != 0)
            .collect();
        let mut sample = Vec::with_capacity(count);
        for k in 0..count {
            let pool = if k % 2 == 0 && !positive.is_empty() {
                &positive
            } else {
                &short
            };
            if !pool.is_empty() {
                sample.push(pool[rng.gen_range(0..pool.len())]);
            }
        }
        for i in sample {
            let got = outcome(pass, re, &bench.lines[i]);
            report.checks.check(got == expected[i], || {
                format!(
                    "{} line {i}: matcher {} but DP baseline {got}",
                    bench.name, expected[i]
                )
            });
        }
    }
}

/// The traced run: untraced passes alternate with passes over oracles
/// wrapped in `Instrumented`, then each layer's public functions are
/// timed from outside on the same lines.
fn trace(
    args: &Args,
    pass: Pass,
    benches: &[Bench],
    plain: &[SemRegex],
    reference: &[Vec<u64>],
    report: &mut Report,
) {
    let instrumented: Vec<Arc<Instrumented<Arc<dyn Oracle>>>> = benches
        .iter()
        .map(|b| Arc::new(Instrumented::new(Arc::clone(&b.oracle))))
        .collect();
    let traced = compile_all(benches, SemRegexBuilder::new, |i| {
        Arc::clone(&instrumented[i]) as Arc<dyn Oracle>
    });
    for (bench, re) in benches.iter().zip(&traced) {
        for line in &bench.lines {
            black_box(outcome(pass, re, line));
        }
    }
    instrumented.iter().for_each(|o| o.reset());

    let lines = total_lines(benches) as u64;
    let deadline = args.deadline(Instant::now());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_lines = 0u64;
    let mut round = 0;
    while round < 4 || Instant::now() < deadline {
        // Even rounds run the plain handles, odd rounds the handles over
        // the `Instrumented` oracles; both are timed a chunk at a time.
        let traced_round = round % 2 == 1;
        let handles = if traced_round { &traced } else { plain };
        let started = Instant::now();
        let mut chunks = Samples::new(chunk_count(benches));
        let wrong = bulk_pass(pass, benches, handles, reference, &mut chunks);
        let elapsed = secs(started.elapsed());
        if traced_round {
            traced_s.push(elapsed);
            traced_lines += lines;
        } else {
            untraced_s.push(elapsed);
        }
        report.checks.record(lines, wrong, || {
            format!("pass {round}: {wrong} outcome(s) changed")
        });
        round += 1;
    }
    report.set(
        "trace.overhead_frac",
        median(&traced_s) / median(&untraced_s) - 1.0,
    );
    let calls: u64 = instrumented.iter().map(|o| o.stats().calls).sum();
    let oracle_ns: u64 = instrumented.iter().map(|o| o.stats().oracle_nanos).sum();
    let traced_total_s: f64 = traced_s.iter().sum();
    report.set(
        "oracle.backend.calls_per_line",
        ratio(calls as f64, traced_lines as f64),
    );
    report.set(
        "oracle.backend.keys_per_kline",
        ratio(1000.0 * calls as f64, traced_lines as f64),
    );
    report.set(
        "oracle.backend.ns_per_line",
        ratio(oracle_ns as f64, traced_lines as f64),
    );
    report.set(
        "oracle.backend.wait_share",
        ratio(oracle_ns as f64 / 1e9, traced_total_s),
    );

    probe_layers(pass, benches, plain, &instrumented, report);
}

/// Sums of one layer's probe over the benchmarks.
#[derive(Default)]
struct Totals {
    lines: f64,
    prescan_ns: f64,
    prescan_rejects: f64,
    dfa_lines: f64,
    dfa_ns: f64,
    dfa_rejects: f64,
    dfa_states: f64,
    survivors: f64,
    eval_ns: f64,
    positions: f64,
    vertices: f64,
    find_ns: f64,
    oracle_calls: f64,
    unique_keys: f64,
    batches: f64,
    deduped: f64,
}

/// Median per-call time in ns of `f` over `items`, across probe rounds.
fn probe_ns<T>(items: &[T], mut f: impl FnMut(&T) -> bool) -> f64 {
    let per_round = median_time(PROBE_ROUNDS, || {
        for item in items {
            black_box(f(black_box(item)));
        }
    });
    ratio(per_round * 1e9, items.len() as f64)
}

fn probe_layers(
    pass: Pass,
    benches: &[Bench],
    handles: &[SemRegex],
    instrumented: &[Arc<Instrumented<Arc<dyn Oracle>>>],
    report: &mut Report,
) {
    let mut all = Totals::default();
    for ((bench, re), oracle) in benches.iter().zip(handles).zip(instrumented) {
        let matcher = Matcher::new(re.semre().clone(), Arc::clone(oracle));
        // Membership screens the whole line with the anchored skeleton;
        // search screens with the skeleton padded by Σ* on both sides.
        let (prescan, skeleton): (&Prescan, Snfa) = match pass {
            Pass::Match => (matcher.prescan(), compile(matcher.skeleton())),
            Pass::Find => (
                matcher.search_prescan(),
                compile(&Semre::padded(matcher.skeleton().clone())),
            ),
        };
        let dfa = LazyDfa::new(&skeleton);
        let lines: Vec<&[u8]> = bench.lines.iter().map(Vec::as_slice).collect();
        let passed_prescan: Vec<&[u8]> = lines
            .iter()
            .copied()
            .filter(|l| !prescan.rejects(l))
            .collect();
        let survivors: Vec<&[u8]> = passed_prescan
            .iter()
            .copied()
            .filter(|l| dfa.matches(l))
            .collect();
        let mut t = Totals {
            lines: lines.len() as f64,
            prescan_ns: probe_ns(&lines, |l| prescan.rejects(l)) * lines.len() as f64,
            prescan_rejects: (lines.len() - passed_prescan.len()) as f64,
            dfa_lines: passed_prescan.len() as f64,
            dfa_ns: probe_ns(&passed_prescan, |l| dfa.matches(l)) * passed_prescan.len() as f64,
            dfa_rejects: (passed_prescan.len() - survivors.len()) as f64,
            dfa_states: dfa_states(&skeleton, &passed_prescan) as f64,
            survivors: survivors.len() as f64,
            ..Totals::default()
        };
        // Evaluator self time: the matcher call minus the time the oracle
        // spent answering inside it.
        let timed = |f: &mut dyn FnMut()| -> f64 {
            let before = oracle.stats().oracle_nanos;
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64 - (oracle.stats().oracle_nanos - before) as f64
        };
        match pass {
            Pass::Match => {
                for line in &survivors {
                    let mut eval = None;
                    t.eval_ns += timed(&mut || eval = Some(matcher.run(line)));
                    let eval = eval.expect("the probe ran");
                    t.positions += eval.positions as f64;
                    t.vertices += eval.vertices_alive as f64;
                    t.oracle_calls += eval.oracle_calls as f64;
                    t.unique_keys += eval.unique_keys as f64;
                    t.batches += eval.batches as f64;
                    t.deduped += eval.keys_deduped as f64;
                }
            }
            Pass::Find => {
                for line in &lines {
                    let mut eval = None;
                    t.find_ns +=
                        timed(&mut || eval = Some(matcher.search(line, SearchKind::Leftmost)));
                    let eval = eval.expect("the probe ran");
                    t.oracle_calls += eval.oracle_calls as f64;
                    t.unique_keys += eval.unique_keys as f64;
                    t.batches += eval.batches as f64;
                    t.deduped += eval.keys_deduped as f64;
                }
            }
        }
        set_eval(report, &format!(".{}", bench_suffix(bench.name)), &t);
        all.add(&t);
    }
    set_eval(report, "", &all);
    report.set(
        "automata.prescan.ns_per_line",
        ratio(all.prescan_ns, all.lines),
    );
    report.set(
        "automata.prescan.reject_frac",
        ratio(all.prescan_rejects, all.lines),
    );
    report.set("automata.dfa.ns_per_line", ratio(all.dfa_ns, all.dfa_lines));
    report.set(
        "automata.dfa.reject_frac",
        ratio(all.dfa_rejects, all.dfa_lines),
    );
    report.set("automata.dfa.states", all.dfa_states);
    report.set(
        "oracle.batch.keys_submitted_per_line",
        ratio(all.oracle_calls, all.lines),
    );
    report.set(
        "oracle.batch.dedup_ratio",
        ratio(all.deduped, all.oracle_calls),
    );
    report.set(
        "oracle.batch.mean_batch",
        ratio(all.unique_keys, all.batches),
    );
}

impl Totals {
    fn add(&mut self, t: &Totals) {
        self.lines += t.lines;
        self.prescan_ns += t.prescan_ns;
        self.prescan_rejects += t.prescan_rejects;
        self.dfa_lines += t.dfa_lines;
        self.dfa_ns += t.dfa_ns;
        self.dfa_rejects += t.dfa_rejects;
        self.dfa_states += t.dfa_states;
        self.survivors += t.survivors;
        self.eval_ns += t.eval_ns;
        self.positions += t.positions;
        self.vertices += t.vertices;
        self.find_ns += t.find_ns;
        self.oracle_calls += t.oracle_calls;
        self.unique_keys += t.unique_keys;
        self.batches += t.batches;
        self.deduped += t.deduped;
    }
}

fn set_eval(report: &mut Report, suffix: &str, t: &Totals) {
    if t.eval_ns > 0.0 {
        report.set(
            format!("core.eval.match_ns_per_survivor{suffix}"),
            ratio(t.eval_ns, t.survivors),
        );
        report.set(
            format!("core.eval.positions_per_survivor{suffix}"),
            ratio(t.positions, t.survivors),
        );
        report.set(
            format!("core.eval.vertices_alive_per_survivor{suffix}"),
            ratio(t.vertices, t.survivors),
        );
    }
    if t.find_ns > 0.0 {
        report.set(
            format!("core.eval.find_ns_per_line{suffix}"),
            ratio(t.find_ns, t.lines),
        );
    }
}

/// The number of distinct determinized states the skeleton automaton
/// visits on `lines`: the states a lazy DFA interns for them.  Computed by
/// subset construction over the SNFA's public transition functions, since
/// `LazyDfa` does not expose its cache.
fn dfa_states(snfa: &Snfa, lines: &[&[u8]]) -> usize {
    let close = |mut set: Vec<usize>| -> Vec<usize> {
        let mut stack = set.clone();
        while let Some(s) = stack.pop() {
            for &t in snfa.eps_out(s) {
                if !set.contains(&t) {
                    set.push(t);
                    stack.push(t);
                }
            }
        }
        set.sort_unstable();
        set
    };
    let mut ids: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut sets: Vec<Vec<usize>> = Vec::new();
    let mut next: HashMap<(usize, u8), usize> = HashMap::new();
    let mut intern = |set: Vec<usize>, sets: &mut Vec<Vec<usize>>| -> usize {
        *ids.entry(set.clone()).or_insert_with(|| {
            sets.push(set);
            sets.len() - 1
        })
    };
    let start = intern(close(vec![snfa.start()]), &mut sets);
    for line in lines {
        let mut state = start;
        for &byte in *line {
            state = match next.get(&(state, byte)) {
                Some(&id) => id,
                None => {
                    let mut stepped: Vec<usize> = sets[state]
                        .iter()
                        .flat_map(|&s| snfa.step(s, byte))
                        .collect();
                    stepped.sort_unstable();
                    stepped.dedup();
                    let id = intern(close(stepped), &mut sets);
                    next.insert((state, byte), id);
                    id
                }
            };
            if sets[state].is_empty() {
                break;
            }
        }
    }
    // The dead state (the empty set) is a sentinel in `LazyDfa`, not an
    // interned state.
    sets.iter().filter(|set| !set.is_empty()).count()
}
