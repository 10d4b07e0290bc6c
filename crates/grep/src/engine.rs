//! The line-oriented scanning engine of `grep_O`.
//!
//! Like the paper's prototype, the engine treats each input line as an
//! independent membership query: it runs a [`LineMatcher`] on every line,
//! records per-line timing and oracle usage, honours an optional time
//! budget (the paper uses 40 minutes per run), and can fan the work out
//! over several threads when per-line statistics are not needed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use semre::SemRegex;
use semre_core::{DpMatcher, Matcher, SuspendedMatch};
use semre_oracle::{
    clear_fault, fault_pending, take_fault, BatchSession, Oracle, OracleError, OracleStats,
    ResolverPool, ScanControl, ScanInterrupt,
};

use crate::stats::{LineRecord, ScanReport};

/// Anything that can decide membership of a single line.
///
/// Implemented by the facade's [`SemRegex`] handle (the normal entry
/// point) and directly by both internal matching algorithms, so that the
/// scanning engine, the CLI, and the benchmark harness can switch between
/// them.
pub trait LineMatcher: Sync {
    /// Whether `line` belongs to the SemRE's language.
    fn matches_line(&self, line: &[u8]) -> bool;

    /// Like [`matches_line`](LineMatcher::matches_line), but resolving
    /// oracle questions through `session`, so answers are batched and
    /// deduplicated across every line sharing the session.
    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool;

    /// A fresh batch session over this matcher's oracle, typically one per
    /// scanned chunk.
    fn session(&self) -> BatchSession<'_>;

    /// A short name identifying the algorithm ("snfa" or "dp").
    fn algorithm(&self) -> &'static str;

    /// Suspension-aware membership: `Err` carries the evaluation parked at
    /// the position whose oracle answers are still in flight on the
    /// overlapped plane, and
    /// [`resume_matches_line`](LineMatcher::resume_matches_line) continues
    /// from exactly there — so a parked line costs `O(|line|)` evaluator
    /// work across all resumptions, not one full replay per flush point.
    /// Synchronous matchers (the default) always answer.
    fn try_matches_line_suspending(
        &self,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        Ok(self.matches_line_in_session(line, session))
    }

    /// Continues a line parked by
    /// [`try_matches_line_suspending`](LineMatcher::try_matches_line_suspending),
    /// re-suspending (with updated state) when the next needed answers are
    /// still in flight.  The default — for matchers that never suspend and
    /// so can never have produced `parked` — re-evaluates synchronously.
    fn resume_matches_line(
        &self,
        parked: SuspendedMatch,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        let _ = parked;
        Ok(self.matches_line_in_session(line, session))
    }

    /// A session wired to this matcher's background resolver pool, when it
    /// has one; chunk scans use it to overlap oracle latency with text
    /// work.  `None` (the default) keeps the scan fully synchronous.
    fn overlapped_session(&self) -> Option<BatchSession<'_>> {
        None
    }

    /// This matcher's background resolver pool, when the overlapped plane
    /// is enabled.
    fn resolver_pool(&self) -> Option<&ResolverPool> {
        None
    }
}

impl LineMatcher for SemRegex {
    fn matches_line(&self, line: &[u8]) -> bool {
        self.is_match(line)
    }

    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool {
        self.is_match_in_session(line, session)
    }

    fn session(&self) -> BatchSession<'_> {
        SemRegex::session(self)
    }

    fn algorithm(&self) -> &'static str {
        SemRegex::algorithm(self)
    }

    fn try_matches_line_suspending(
        &self,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        SemRegex::try_is_match_suspending(self, line, session)
    }

    fn resume_matches_line(
        &self,
        parked: SuspendedMatch,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        SemRegex::resume_is_match(self, parked, line, session)
    }

    fn overlapped_session(&self) -> Option<BatchSession<'_>> {
        SemRegex::overlapped_session(self)
    }

    fn resolver_pool(&self) -> Option<&ResolverPool> {
        SemRegex::resolver_pool(self).map(|pool| &**pool)
    }
}

impl<O: Oracle> LineMatcher for Matcher<O> {
    fn matches_line(&self, line: &[u8]) -> bool {
        self.is_match(line)
    }

    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool {
        self.run_in_session(line, session).matched
    }

    fn session(&self) -> BatchSession<'_> {
        Matcher::session(self)
    }

    fn algorithm(&self) -> &'static str {
        "snfa"
    }
}

impl<O: Oracle> LineMatcher for DpMatcher<O> {
    fn matches_line(&self, line: &[u8]) -> bool {
        self.is_match(line)
    }

    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool {
        self.run_in_session(line, session).matched
    }

    fn session(&self) -> BatchSession<'_> {
        DpMatcher::session(self)
    }

    fn algorithm(&self) -> &'static str {
        "dp"
    }
}

/// What a scan driver does when the oracle plane reports a fault for a
/// line — retries exhausted, breaker open, resolver batch failed — instead
/// of an answer.
///
/// Whatever the policy, degradation is explicit: a faulted line either
/// stops the scan, disappears from the report with its index recorded in
/// [`ScanReport::degraded`], or is reported as a flagged non-match.  A
/// fault never silently changes a verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Stop the scan at the first fault and surface it in
    /// [`ScanReport::fault`] (the default — fail loudly).
    #[default]
    Fail,
    /// Drop the affected line from the report, recording its index in
    /// [`ScanReport::degraded`]; the scan continues.
    SkipLine,
    /// Report the affected line as a non-match with
    /// [`LineRecord::degraded`] set (and its index in
    /// [`ScanReport::degraded`]); the scan continues.
    NoMatch,
}

impl FaultPolicy {
    /// Parses the CLI spelling of a policy (`fail`, `skip-line`,
    /// `no-match`).
    pub fn parse(text: &str) -> Option<FaultPolicy> {
        match text {
            "fail" => Some(FaultPolicy::Fail),
            "skip-line" => Some(FaultPolicy::SkipLine),
            "no-match" => Some(FaultPolicy::NoMatch),
            _ => None,
        }
    }

    /// The CLI spelling of this policy.
    pub fn name(self) -> &'static str {
        match self {
            FaultPolicy::Fail => "fail",
            FaultPolicy::SkipLine => "skip-line",
            FaultPolicy::NoMatch => "no-match",
        }
    }
}

/// Options controlling a scan.
#[derive(Clone, Debug, Default)]
pub struct ScanOptions {
    /// Stop scanning (reporting `timed_out`) once this much wall-clock time
    /// has elapsed.
    pub time_budget: Option<Duration>,
    /// Process at most this many lines.
    pub max_lines: Option<usize>,
    /// Cooperative interruption — deadline, cancellation flag, live budget
    /// probe — checked at line boundaries; a tripped control stops the scan
    /// cleanly with [`ScanReport::interrupted`] set.
    pub control: ScanControl,
    /// What to do when the oracle plane faults on a line.
    pub fault_policy: FaultPolicy,
}

impl ScanOptions {
    /// No limits: scan every line.
    pub fn unlimited() -> Self {
        ScanOptions::default()
    }

    /// Scan with a wall-clock budget.
    pub fn with_time_budget(budget: Duration) -> Self {
        ScanOptions {
            time_budget: Some(budget),
            ..ScanOptions::default()
        }
    }

    /// Returns `self` with the cooperative [`ScanControl`] installed.
    #[must_use]
    pub fn with_control(mut self, control: ScanControl) -> Self {
        self.control = control;
        self
    }

    /// Returns `self` scanning under the given fault policy.
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }
}

/// Per-chunk fault bookkeeping shared between a driver's admit loop and
/// [`drain_parked`]: the degraded line indices (in whatever order lines
/// decided; drivers sort before merging) and the fault that aborted the
/// chunk under [`FaultPolicy::Fail`].
#[derive(Default)]
struct FaultOutcome {
    degraded: Vec<usize>,
    fault: Option<OracleError>,
}

/// Applies the scan's fault policy to one decided line: consumes the
/// thread's pending fault (if any) and returns the record to keep (if any)
/// plus whether the scan must abort.
fn apply_fault_policy(
    policy: FaultPolicy,
    record: LineRecord,
    outcome: &mut FaultOutcome,
) -> (Option<LineRecord>, bool) {
    match take_fault() {
        None => (Some(record), false),
        Some(error) => match policy {
            FaultPolicy::Fail => {
                outcome.fault = Some(error);
                (None, true)
            }
            FaultPolicy::SkipLine => {
                outcome.degraded.push(record.index);
                (None, false)
            }
            FaultPolicy::NoMatch => {
                outcome.degraded.push(record.index);
                (
                    Some(LineRecord {
                        matched: false,
                        degraded: true,
                        ..record
                    }),
                    false,
                )
            }
        },
    }
}

/// Scans `lines` sequentially with `matcher`, snapshotting `oracle_stats`
/// around every line so that oracle usage can be attributed per line.
///
/// Pass a closure returning [`OracleStats::default`] when oracle accounting
/// is not needed.
pub fn scan<M, L, F>(matcher: &M, lines: &[L], oracle_stats: F, options: ScanOptions) -> ScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]>,
    F: Fn() -> OracleStats,
{
    let started = Instant::now();
    let mut report = ScanReport::default();
    clear_fault();
    for (index, line) in lines.iter().enumerate() {
        if let Some(max) = options.max_lines {
            if index >= max {
                break;
            }
        }
        if let Some(budget) = options.time_budget {
            if started.elapsed() >= budget {
                report.timed_out = true;
                break;
            }
        }
        if let Some(interrupt) = options.control.interrupted() {
            report.interrupted = Some(interrupt);
            break;
        }
        let line = line.as_ref();
        let before = oracle_stats();
        let line_start = Instant::now();
        let matched = matcher.matches_line(line);
        let duration = line_start.elapsed();
        let oracle = oracle_stats() - before;
        let record = LineRecord {
            index,
            length: line.len(),
            matched,
            degraded: false,
            duration,
            oracle,
        };
        let mut outcome = FaultOutcome::default();
        let (keep, abort) = apply_fault_policy(options.fault_policy, record, &mut outcome);
        if let Some(record) = keep {
            report.records.push(record);
        }
        report.degraded.extend(outcome.degraded);
        if abort {
            report.fault = outcome.fault;
            break;
        }
    }
    report.total_duration = started.elapsed();
    report
}

/// The session a chunk scan works through: wired to the matcher's
/// resolver pool when `overlapped` is requested and the matcher has one,
/// plain otherwise.
fn chunk_session<M: LineMatcher + ?Sized>(matcher: &M, overlapped: bool) -> BatchSession<'_> {
    if overlapped {
        if let Some(session) = matcher.overlapped_session() {
            return session;
        }
    }
    matcher.session()
}

/// A line whose evaluation is suspended on in-flight oracle answers: the
/// scan keeps its bytes (records only borrow the corpus) and the evaluator
/// checkpoint to continue from.
struct Parked {
    index: usize,
    length: usize,
    line: Vec<u8>,
    state: SuspendedMatch,
}

/// Completion-driven re-evaluation of a chunk's parked lines: resume each
/// suspended line from its checkpoint, and when a whole round makes no
/// progress — no line completed and none advanced past its parked position
/// — block until the resolver pool publishes another batch.  Resumes are
/// cheap: a line with `k` in-flight flush points costs `O(|line|)`
/// evaluator work *total* across all its resumptions, not `k` replays.
/// Returns the completed records (in whatever order lines resumed; callers
/// re-sort by index).  Faulted resumes go through `outcome` under `policy`;
/// a [`FaultPolicy::Fail`] fault aborts the drain, abandoning the remaining
/// parked lines (the resolver pool completes their keys with placeholders,
/// so nothing blocks — the scan is stopping anyway).
fn drain_parked<M, T>(
    matcher: &M,
    session: &mut BatchSession<'_>,
    mut parked: Vec<Parked>,
    policy: FaultPolicy,
    outcome: &mut FaultOutcome,
    mut resume: impl FnMut(
        &M,
        SuspendedMatch,
        &[u8],
        &mut BatchSession<'_>,
    ) -> Result<(bool, T), SuspendedMatch>,
) -> Vec<(LineRecord, T)>
where
    M: LineMatcher + ?Sized,
{
    let mut records = Vec::with_capacity(parked.len());
    while !parked.is_empty() {
        let pool = matcher
            .resolver_pool()
            .expect("lines suspend only on the overlapped plane");
        // Snapshot *before* the resumes: a batch published while this
        // round runs must wake the wait below, not be missed.
        let generation = pool.generation();
        let mut advanced = false;
        let mut still = Vec::with_capacity(parked.len());
        for entry in parked {
            let Parked {
                index,
                length,
                line,
                state,
            } = entry;
            let from = state.position();
            let line_start = Instant::now();
            match resume(matcher, state, &line, session) {
                Ok((matched, extra)) => {
                    pool.note_resume();
                    advanced = true;
                    let record = LineRecord {
                        index,
                        length,
                        matched,
                        degraded: false,
                        duration: line_start.elapsed(),
                        oracle: OracleStats::default(),
                    };
                    let (keep, abort) = apply_fault_policy(policy, record, outcome);
                    if let Some(record) = keep {
                        records.push((record, extra));
                    }
                    if abort {
                        return records;
                    }
                }
                Err(state) => {
                    advanced |= state.position() > from;
                    still.push(Parked {
                        index,
                        length,
                        line,
                        state,
                    });
                }
            }
        }
        parked = still;
        if !advanced {
            pool.wait_for_progress(generation);
        }
    }
    records
}

/// Shared driver for chunk-session scans: one session per
/// `chunk_lines`-sized chunk, the `max_lines` / `time_budget` limits, and
/// batch-stats accumulation.  `match_line` decides one line through the
/// chunk's session (recording whatever per-line detail it needs on the
/// side); `Err` parks the line for completion-driven resumption through
/// `resume_line` (overlapped plane only — with `overlapped` off, or on
/// synchronous matchers, every line answers immediately).
fn scan_in_chunks<M, L>(
    matcher: &M,
    lines: &[L],
    chunk_lines: usize,
    options: ScanOptions,
    overlapped: bool,
    mut match_line: impl FnMut(&M, usize, &[u8], &mut BatchSession<'_>) -> Result<bool, SuspendedMatch>,
    mut resume_line: impl FnMut(
        &M,
        SuspendedMatch,
        &[u8],
        &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch>,
) -> ScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]>,
{
    let started = Instant::now();
    let chunk_lines = chunk_lines.max(1);
    let mut report = ScanReport::default();
    clear_fault();
    'scan: for (chunk_index, chunk) in lines.chunks(chunk_lines).enumerate() {
        let mut session = chunk_session(matcher, overlapped);
        let mut stop = false;
        let mut chunk_records: Vec<(LineRecord, ())> = Vec::with_capacity(chunk.len());
        let mut parked: Vec<Parked> = Vec::new();
        let mut outcome = FaultOutcome::default();
        for (offset, line) in chunk.iter().enumerate() {
            let index = chunk_index * chunk_lines + offset;
            if let Some(max) = options.max_lines {
                if index >= max {
                    stop = true;
                    break;
                }
            }
            if let Some(budget) = options.time_budget {
                if started.elapsed() >= budget {
                    report.timed_out = true;
                    stop = true;
                    break;
                }
            }
            if let Some(interrupt) = options.control.interrupted() {
                report.interrupted = Some(interrupt);
                stop = true;
                break;
            }
            let line = line.as_ref();
            let line_start = Instant::now();
            match match_line(matcher, index, line, &mut session) {
                Ok(matched) => {
                    let record = LineRecord {
                        index,
                        length: line.len(),
                        matched,
                        degraded: false,
                        duration: line_start.elapsed(),
                        oracle: OracleStats::default(),
                    };
                    let (keep, abort) =
                        apply_fault_policy(options.fault_policy, record, &mut outcome);
                    if let Some(record) = keep {
                        chunk_records.push((record, ()));
                    }
                    if abort {
                        stop = true;
                        break;
                    }
                }
                Err(state) => {
                    matcher
                        .resolver_pool()
                        .expect("lines suspend only on the overlapped plane")
                        .note_suspend();
                    parked.push(Parked {
                        index,
                        length: line.len(),
                        line: line.to_vec(),
                        state,
                    });
                }
            }
        }
        // Every admitted line gets a verdict, even when a limit stopped
        // the chunk early: parked lines already have questions in flight.
        // (Except under a `Fail` abort: the scan is stopping, so the
        // remaining parked lines are abandoned.)
        if outcome.fault.is_none() {
            chunk_records.extend(drain_parked(
                matcher,
                &mut session,
                parked,
                options.fault_policy,
                &mut outcome,
                |m, state, line, session| resume_line(m, state, line, session).map(|v| (v, ())),
            ));
        }
        if let Some(error) = outcome.fault.take() {
            report.fault = Some(error);
            stop = true;
        }
        chunk_records.sort_unstable_by_key(|(record, ())| record.index);
        report
            .records
            .extend(chunk_records.into_iter().map(|(record, ())| record));
        outcome.degraded.sort_unstable();
        report.degraded.extend(outcome.degraded);
        report.batch = report.batch.merged(&session.stats());
        if stop {
            break 'scan;
        }
    }
    report.total_duration = started.elapsed();
    report
}

/// Scans `lines` with one [`BatchSession`] per `chunk_lines`-sized chunk,
/// so oracle questions are batched within each line (the evaluator's
/// collect phase) *and* deduplicated across the lines of a chunk — repeated
/// domains, medicine names, or paths in a corpus reach the backend once per
/// chunk instead of once per occurrence.
///
/// The per-chunk [`BatchStats`](semre_oracle::BatchStats) are accumulated
/// into [`ScanReport::batch`]; per-line oracle attribution is not recorded
/// (a batch belongs to a chunk, not a line).
///
/// On a matcher with a background resolver pool (built with
/// `SemRegexBuilder::overlapped`), lines whose answers are in flight are
/// parked while the scan continues, and resumed from their checkpoints as
/// the pool publishes answers — verdicts and record order are identical to
/// the synchronous scan.
pub fn scan_batched<M, L>(
    matcher: &M,
    lines: &[L],
    chunk_lines: usize,
    options: ScanOptions,
) -> ScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]>,
{
    scan_in_chunks(
        matcher,
        lines,
        chunk_lines,
        options,
        true,
        |m, _, line, session| m.try_matches_line_suspending(line, session),
        |m, parked, line, session| m.resume_matches_line(parked, line, session),
    )
}

/// Scans `lines` in span-search mode: every processed line is searched for
/// its non-overlapping leftmost-earliest spans, and a line counts as
/// matched when it has at least one.  Chunking, limits, and batch-stats
/// accumulation behave exactly like [`scan_batched`]; the second component
/// maps each processed line index to its spans.
///
/// With `first_span_only` the search of a line stops at its first span —
/// enough to decide the line, and much cheaper when only verdicts or
/// counts are needed.
pub fn scan_spans<L>(
    re: &SemRegex,
    lines: &[L],
    chunk_lines: usize,
    options: ScanOptions,
    first_span_only: bool,
) -> (ScanReport, Vec<Vec<(usize, usize)>>)
where
    L: AsRef<[u8]>,
{
    let mut spans_per_line: Vec<Vec<(usize, usize)>> = vec![Vec::new(); lines.len()];
    // Span search resolves synchronously (overlap applies to membership
    // scans), so the closure always answers.
    let report = scan_in_chunks(
        re,
        lines,
        chunk_lines,
        options,
        false,
        |re, index, line, session| {
            let mut spans = line_spans(re, line, session, first_span_only);
            // Spans computed from placeholder answers must not leak: a
            // faulted line degrades (or fails) through the driver's
            // policy, never reports half-decided spans.
            if fault_pending() {
                spans.clear();
            }
            let matched = !spans.is_empty();
            spans_per_line[index] = spans;
            Ok(matched)
        },
        |_, _, _, _| unreachable!("span scans run synchronously and never suspend"),
    );
    (report, spans_per_line)
}

/// The non-overlapping leftmost-earliest spans of one line (all of them, or
/// just the first).  The advance rule is shared with `find_iter`.
fn line_spans(
    re: &SemRegex,
    line: &[u8],
    session: &mut BatchSession<'_>,
    first_span_only: bool,
) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = 0;
    while at <= line.len() {
        match re.find_at_in_session(line, at, session) {
            Some(m) => {
                at = m.next_search_start();
                spans.push((m.start(), m.end()));
                if first_span_only {
                    break;
                }
            }
            None => break,
        }
    }
    spans
}

/// Work-stealing parallel driver shared by the `*_parallel` scan modes:
/// chunks are claimed off a shared counter, each worker owns one
/// [`BatchSession`] per chunk it processes, and the per-chunk results are
/// reassembled in chunk order afterwards — so for a scan that runs to
/// completion the records (and hence any output derived from them) are
/// byte-identical to the sequential scan, for any thread count.
///
/// `per_line` decides one line through the chunk's session and returns the
/// verdict plus any per-line extra (e.g. the matched spans); extras are
/// returned indexed by absolute line number.  `Err` parks the line for
/// completion-driven resumption through `resume` on the overlapped plane
/// (pass `overlapped: false` for closures that always answer).
#[allow(clippy::too_many_arguments)] // private driver; every scan mode names all eight
fn scan_chunks_parallel<M, L, T, F, R>(
    matcher: &M,
    lines: &[L],
    chunk_lines: usize,
    threads: usize,
    options: ScanOptions,
    overlapped: bool,
    per_line: F,
    resume: R,
) -> (ScanReport, Vec<T>)
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]> + Sync,
    T: Default + Send,
    F: Fn(&M, usize, &[u8], &mut BatchSession<'_>) -> Result<(bool, T), SuspendedMatch> + Sync,
    R: Fn(&M, SuspendedMatch, &[u8], &mut BatchSession<'_>) -> Result<(bool, T), SuspendedMatch>
        + Sync,
{
    let started = Instant::now();
    let chunk_lines = chunk_lines.max(1);
    let limit = options.max_lines.unwrap_or(usize::MAX).min(lines.len());
    let lines = &lines[..limit];
    let num_chunks = lines.len().div_ceil(chunk_lines);
    let threads = threads.max(1).min(num_chunks.max(1));
    let next_chunk = AtomicUsize::new(0);
    let timed_out = AtomicBool::new(false);
    // A `Fail` fault, a tripped ScanControl, or a panicked worker stops
    // every worker from claiming further chunks; the first cause wins its
    // slot.  Completed chunks are kept — the report is an honest prefix.
    let stopped = AtomicBool::new(false);
    let fault_slot: Mutex<Option<OracleError>> = Mutex::new(None);
    let interrupt_slot: Mutex<Option<ScanInterrupt>> = Mutex::new(None);

    type ChunkResult<T> = (usize, Vec<(LineRecord, T)>, semre::BatchStats, Vec<usize>);
    let worker = || -> Vec<ChunkResult<T>> {
        clear_fault();
        let mut out = Vec::new();
        loop {
            if timed_out.load(Ordering::Relaxed) || stopped.load(Ordering::Relaxed) {
                break;
            }
            let chunk_index = next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk_index >= num_chunks {
                break;
            }
            let start_line = chunk_index * chunk_lines;
            let chunk = &lines[start_line..(start_line + chunk_lines).min(lines.len())];
            let mut session = chunk_session(matcher, overlapped);
            let mut records = Vec::with_capacity(chunk.len());
            let mut parked: Vec<Parked> = Vec::new();
            let mut outcome = FaultOutcome::default();
            for (offset, line) in chunk.iter().enumerate() {
                if let Some(budget) = options.time_budget {
                    if started.elapsed() >= budget {
                        timed_out.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                if let Some(interrupt) = options.control.interrupted() {
                    let mut slot = interrupt_slot
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    slot.get_or_insert(interrupt);
                    stopped.store(true, Ordering::Relaxed);
                    break;
                }
                let index = start_line + offset;
                let line = line.as_ref();
                let line_start = Instant::now();
                match per_line(matcher, index, line, &mut session) {
                    Ok((matched, extra)) => {
                        let record = LineRecord {
                            index,
                            length: line.len(),
                            matched,
                            degraded: false,
                            duration: line_start.elapsed(),
                            oracle: OracleStats::default(),
                        };
                        let (keep, abort) =
                            apply_fault_policy(options.fault_policy, record, &mut outcome);
                        if let Some(record) = keep {
                            records.push((record, extra));
                        }
                        if abort {
                            break;
                        }
                    }
                    Err(state) => {
                        matcher
                            .resolver_pool()
                            .expect("lines suspend only on the overlapped plane")
                            .note_suspend();
                        parked.push(Parked {
                            index,
                            length: line.len(),
                            line: line.to_vec(),
                            state,
                        });
                    }
                }
            }
            if outcome.fault.is_none() {
                records.extend(drain_parked(
                    matcher,
                    &mut session,
                    parked,
                    options.fault_policy,
                    &mut outcome,
                    &resume,
                ));
            }
            if let Some(error) = outcome.fault.take() {
                let mut slot = fault_slot.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(error);
                stopped.store(true, Ordering::Relaxed);
            }
            records.sort_unstable_by_key(|(record, _)| record.index);
            outcome.degraded.sort_unstable();
            out.push((chunk_index, records, session.stats(), outcome.degraded));
        }
        out
    };

    let mut chunks: Vec<ChunkResult<T>> = if threads <= 1 {
        worker()
    } else {
        let mut collected = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| catch_unwind(AssertUnwindSafe(worker))))
                .collect();
            for handle in handles {
                match handle.join().expect("scan worker thread died") {
                    Ok(chunk_results) => collected.extend(chunk_results),
                    Err(_) => {
                        // A panicking matcher (or oracle on the synchronous
                        // plane) loses its worker's chunks but surfaces as a
                        // scan fault instead of aborting the process.
                        let mut slot = fault_slot.lock().unwrap_or_else(PoisonError::into_inner);
                        slot.get_or_insert(OracleError::fatal("scan worker panicked"));
                        stopped.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        collected
    };
    chunks.sort_unstable_by_key(|&(index, _, _, _)| index);

    let mut report = ScanReport::default();
    let mut extras: Vec<T> = std::iter::repeat_with(T::default)
        .take(lines.len())
        .collect();
    for (_, records, stats, degraded) in chunks {
        for (record, extra) in records {
            extras[record.index] = extra;
            report.records.push(record);
        }
        report.batch = report.batch.merged(&stats);
        report.degraded.extend(degraded);
    }
    report.timed_out = timed_out.load(Ordering::Relaxed);
    report.fault = fault_slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    report.interrupted = interrupt_slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    report.total_duration = started.elapsed();
    (report, extras)
}

/// Parallel [`scan_batched`]: fans the chunks out over `threads` worker
/// threads, each chunk with its own [`BatchSession`], merging the sessions'
/// [`BatchStats`](semre_oracle::BatchStats) and reassembling the records in
/// line order.  A scan that runs to completion produces exactly the
/// verdicts of the sequential scan for any `threads`; chunk boundaries (and
/// hence cross-line deduplication scope) are the same as sequentially.
pub fn scan_batched_parallel<M, L>(
    matcher: &M,
    lines: &[L],
    chunk_lines: usize,
    threads: usize,
    options: ScanOptions,
) -> ScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]> + Sync,
{
    let (report, _) = scan_chunks_parallel(
        matcher,
        lines,
        chunk_lines,
        threads,
        options,
        true,
        |m, _, line, session| {
            m.try_matches_line_suspending(line, session)
                .map(|matched| (matched, ()))
        },
        |m, parked, line, session| {
            m.resume_matches_line(parked, line, session)
                .map(|matched| (matched, ()))
        },
    );
    report
}

/// Parallel membership scan on the per-call oracle plane: like
/// [`scan_batched_parallel`] but every line is decided through
/// [`LineMatcher::matches_line`], so no session-level batching or
/// deduplication takes place (the paper-prototype transport, fanned out).
pub fn scan_per_call_parallel<M, L>(
    matcher: &M,
    lines: &[L],
    chunk_lines: usize,
    threads: usize,
    options: ScanOptions,
) -> ScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]> + Sync,
{
    let (report, _) = scan_chunks_parallel(
        matcher,
        lines,
        chunk_lines,
        threads,
        options,
        false,
        |m, _, line, _session| Ok((m.matches_line(line), ())),
        |_, _, _, _| unreachable!("per-call scans run synchronously and never suspend"),
    );
    report
}

/// Parallel [`scan_spans`]: span-search over chunks fanned out across
/// `threads` workers, returning each processed line's non-overlapping
/// leftmost-earliest spans.  Output order and content match the sequential
/// scan exactly when the scan runs to completion.
pub fn scan_spans_parallel<L>(
    re: &SemRegex,
    lines: &[L],
    chunk_lines: usize,
    threads: usize,
    options: ScanOptions,
    first_span_only: bool,
) -> (ScanReport, Vec<Vec<(usize, usize)>>)
where
    L: AsRef<[u8]> + Sync,
{
    scan_chunks_parallel(
        re,
        lines,
        chunk_lines,
        threads,
        options,
        false,
        |re, _, line, session| {
            let mut spans = line_spans(re, line, session, first_span_only);
            if fault_pending() {
                spans.clear();
            }
            Ok((!spans.is_empty(), spans))
        },
        |_, _, _, _| unreachable!("span scans run synchronously and never suspend"),
    )
}

/// The result of a parallel scan: only which lines matched and the total
/// wall-clock time (per-line oracle attribution is not meaningful when
/// lines are matched concurrently).
#[derive(Clone, Debug, Default)]
pub struct ParallelScanReport {
    /// `matched[i]` tells whether line `i` matched.
    pub matched: Vec<bool>,
    /// Total wall-clock time of the scan.
    pub total_duration: Duration,
    /// Number of worker threads used.
    pub threads: usize,
}

impl ParallelScanReport {
    /// Number of matching lines.
    pub fn matched_lines(&self) -> usize {
        self.matched.iter().filter(|&&m| m).count()
    }
}

/// Scans `lines` with `matcher` using `threads` worker threads (chunked
/// statically).  Falls back to a single thread when `threads` is 0 or 1.
pub fn scan_parallel<M, L>(matcher: &M, lines: &[L], threads: usize) -> ParallelScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]> + Sync,
{
    let started = Instant::now();
    let threads = threads.max(1).min(lines.len().max(1));
    let mut matched = vec![false; lines.len()];
    if threads <= 1 {
        for (slot, line) in matched.iter_mut().zip(lines) {
            *slot = matcher.matches_line(line.as_ref());
        }
    } else {
        let chunk = lines.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (line_chunk, out_chunk) in lines.chunks(chunk).zip(matched.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (slot, line) in out_chunk.iter_mut().zip(line_chunk) {
                        *slot = matcher.matches_line(line.as_ref());
                    }
                });
            }
        });
    }
    ParallelScanReport {
        matched,
        total_duration: started.elapsed(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semre_oracle::{Instrumented, SimLlmOracle};
    use semre_syntax::parse;

    fn lines() -> Vec<String> {
        vec![
            "Subject: cheap viagra now".to_owned(),
            "Subject: weekly report attached".to_owned(),
            "nothing to see here".to_owned(),
            "Subject: more tramadol deals".to_owned(),
        ]
    }

    fn matcher() -> Matcher<Instrumented<SimLlmOracle>> {
        let oracle = Instrumented::new(SimLlmOracle::new());
        Matcher::new(
            parse("Subject: .*(?<Medicine name>: .+).*").unwrap(),
            oracle,
        )
    }

    #[test]
    fn sequential_scan_attributes_oracle_usage() {
        let m = matcher();
        let report = scan(
            &m,
            &lines(),
            || m.oracle().stats(),
            ScanOptions::unlimited(),
        );
        assert_eq!(report.lines(), 4);
        assert_eq!(report.matched_lines(), 2);
        assert!(!report.timed_out);
        // The line without the Subject prefix never consults the oracle.
        assert_eq!(report.records[2].oracle.calls, 0);
        assert!(report.records[0].oracle.calls > 0);
        // The cumulative oracle counter may additionally have seen (q, ε)
        // probes issued while the matcher was built, but nothing else.
        let construction_probes = m.oracle().stats().calls - report.oracle_totals().calls;
        assert!(
            construction_probes <= 1,
            "unexpected extra oracle calls: {construction_probes}"
        );
        assert_eq!(m.algorithm(), "snfa");
    }

    #[test]
    fn max_lines_and_time_budget() {
        let m = matcher();
        let limited = scan(
            &m,
            &lines(),
            OracleStats::default,
            ScanOptions {
                max_lines: Some(2),
                ..ScanOptions::default()
            },
        );
        assert_eq!(limited.lines(), 2);
        assert!(!limited.timed_out);

        let exhausted = scan(
            &m,
            &lines(),
            OracleStats::default,
            ScanOptions::with_time_budget(Duration::ZERO),
        );
        assert_eq!(exhausted.lines(), 0);
        assert!(exhausted.timed_out);
    }

    #[test]
    fn dp_matcher_is_a_line_matcher() {
        let oracle = SimLlmOracle::new();
        let dp = DpMatcher::new(
            parse("Subject: .*(?<Medicine name>: .+).*").unwrap(),
            oracle,
        );
        let report = scan(
            &dp,
            &lines(),
            OracleStats::default,
            ScanOptions::unlimited(),
        );
        assert_eq!(report.matched_lines(), 2);
        assert_eq!(dp.algorithm(), "dp");
    }

    #[test]
    fn parallel_scan_agrees_with_sequential() {
        let m = matcher();
        let sequential = scan(&m, &lines(), OracleStats::default, ScanOptions::unlimited());
        for threads in [1, 2, 4, 16] {
            let parallel = scan_parallel(&m, &lines(), threads);
            assert_eq!(parallel.matched.len(), 4);
            assert_eq!(parallel.matched_lines(), sequential.matched_lines());
            let expected: Vec<bool> = sequential.records.iter().map(|r| r.matched).collect();
            assert_eq!(parallel.matched, expected);
            assert!(parallel.threads >= 1);
        }
    }

    #[test]
    fn empty_input() {
        let m = matcher();
        let report = scan(
            &m,
            &Vec::<String>::new(),
            OracleStats::default,
            ScanOptions::unlimited(),
        );
        assert_eq!(report.lines(), 0);
        let parallel = scan_parallel(&m, &Vec::<String>::new(), 4);
        assert_eq!(parallel.matched_lines(), 0);
        let batched = scan_batched(&m, &Vec::<String>::new(), 16, ScanOptions::unlimited());
        assert_eq!(batched.lines(), 0);
        assert_eq!(batched.batch.batches, 0);
    }

    #[test]
    fn semregex_handles_drive_all_scan_modes() {
        let re = semre::SemRegex::new(
            "Subject: .*(?<Medicine name>: .+).*",
            semre_oracle::SimLlmOracle::new(),
        )
        .unwrap();
        let sequential = scan(
            &re,
            &lines(),
            OracleStats::default,
            ScanOptions::unlimited(),
        );
        assert_eq!(sequential.matched_lines(), 2);
        assert_eq!(LineMatcher::algorithm(&re), "snfa");

        let batched = scan_batched(&re, &lines(), 16, ScanOptions::unlimited());
        let got: Vec<bool> = batched.records.iter().map(|r| r.matched).collect();
        let expected: Vec<bool> = sequential.records.iter().map(|r| r.matched).collect();
        assert_eq!(got, expected);
        assert!(batched.batch.keys_submitted > 0);

        let parallel = scan_parallel(&re, &lines(), 2);
        assert_eq!(parallel.matched_lines(), 2);
    }

    #[test]
    fn batched_scan_agrees_with_sequential_and_dedups_across_lines() {
        let m = matcher();
        let mut corpus = lines();
        // Duplicate the whole corpus: the second half must be answered from
        // the chunk session.
        corpus.extend(lines());

        let sequential = scan(&m, &corpus, || m.oracle().stats(), ScanOptions::unlimited());
        let sequential_calls = sequential.oracle_totals().calls;

        m.oracle().reset();
        let batched = scan_batched(&m, &corpus, corpus.len(), ScanOptions::unlimited());
        let batched_backend_calls = m.oracle().stats().calls;

        let expected: Vec<bool> = sequential.records.iter().map(|r| r.matched).collect();
        let got: Vec<bool> = batched.records.iter().map(|r| r.matched).collect();
        assert_eq!(got, expected);
        assert!(batched.batch.keys_submitted > 0);
        assert!(
            batched.batch.keys_deduped > 0,
            "duplicated lines must dedup: {:?}",
            batched.batch
        );
        assert_eq!(batched.batch.backend_keys, batched_backend_calls);
        assert!(
            batched_backend_calls < sequential_calls,
            "chunk session should reach the backend less often ({batched_backend_calls} vs {sequential_calls})"
        );
        assert!(batched.batch_dedup_ratio() > 0.0);
    }

    #[test]
    fn batched_scan_honours_chunk_boundaries_and_limits() {
        let m = matcher();
        let corpus = lines();
        // Chunk size 1: every line gets a fresh session, so cross-line
        // dedup disappears but verdicts are unchanged.
        let per_line = scan_batched(&m, &corpus, 1, ScanOptions::unlimited());
        let whole = scan_batched(&m, &corpus, corpus.len(), ScanOptions::unlimited());
        assert_eq!(per_line.matched_lines(), whole.matched_lines());
        assert!(per_line.batch.keys_submitted >= whole.batch.keys_submitted);

        let limited = scan_batched(
            &m,
            &corpus,
            2,
            ScanOptions {
                max_lines: Some(2),
                ..ScanOptions::default()
            },
        );
        assert_eq!(limited.lines(), 2);
        assert!(!limited.timed_out);

        let exhausted = scan_batched(
            &m,
            &corpus,
            2,
            ScanOptions::with_time_budget(Duration::ZERO),
        );
        assert_eq!(exhausted.lines(), 0);
        assert!(exhausted.timed_out);
    }

    #[test]
    fn parallel_batched_scan_is_identical_to_sequential() {
        let m = matcher();
        let mut corpus = lines();
        corpus.extend(lines());
        for chunk in [1, 3, 64] {
            let sequential = scan_batched(&m, &corpus, chunk, ScanOptions::unlimited());
            for threads in [1, 2, 8] {
                let parallel =
                    scan_batched_parallel(&m, &corpus, chunk, threads, ScanOptions::unlimited());
                let got: Vec<(usize, bool)> = parallel
                    .records
                    .iter()
                    .map(|r| (r.index, r.matched))
                    .collect();
                let expected: Vec<(usize, bool)> = sequential
                    .records
                    .iter()
                    .map(|r| (r.index, r.matched))
                    .collect();
                assert_eq!(got, expected, "chunk={chunk} threads={threads}");
                // Same chunk boundaries → same session-level dedup totals.
                assert_eq!(
                    parallel.batch.keys_submitted, sequential.batch.keys_submitted,
                    "chunk={chunk} threads={threads}"
                );
                assert_eq!(
                    parallel.batch.keys_deduped, sequential.batch.keys_deduped,
                    "chunk={chunk} threads={threads}"
                );
                assert!(!parallel.timed_out);
            }
        }
    }

    #[test]
    fn parallel_span_scan_matches_sequential_spans() {
        let re = semre::SemRegex::new(
            r"(?<Medicine name>: [a-z]+)",
            semre_oracle::SimLlmOracle::new(),
        )
        .unwrap();
        let corpus = vec![
            "take tramadol or ambien daily".to_owned(),
            "nothing here".to_owned(),
            "viagra viagra viagra".to_owned(),
        ];
        for first_only in [false, true] {
            let (seq_report, seq_spans) =
                scan_spans(&re, &corpus, 2, ScanOptions::unlimited(), first_only);
            for threads in [1, 2, 8] {
                let (par_report, par_spans) = scan_spans_parallel(
                    &re,
                    &corpus,
                    2,
                    threads,
                    ScanOptions::unlimited(),
                    first_only,
                );
                assert_eq!(par_spans, seq_spans, "threads={threads}");
                assert_eq!(par_report.matched_lines(), seq_report.matched_lines());
            }
        }
    }

    #[test]
    fn parallel_scans_honour_limits() {
        let m = matcher();
        let corpus = lines();
        let limited = scan_batched_parallel(
            &m,
            &corpus,
            2,
            4,
            ScanOptions {
                max_lines: Some(2),
                ..ScanOptions::default()
            },
        );
        assert_eq!(limited.lines(), 2);
        assert!(!limited.timed_out);

        let exhausted = scan_batched_parallel(
            &m,
            &corpus,
            2,
            4,
            ScanOptions::with_time_budget(Duration::ZERO),
        );
        assert_eq!(exhausted.lines(), 0);
        assert!(exhausted.timed_out);

        let per_call = scan_per_call_parallel(&m, &corpus, 2, 4, ScanOptions::unlimited());
        assert_eq!(per_call.matched_lines(), 2);
        assert_eq!(
            per_call.batch.keys_submitted, 0,
            "per-call plane batches nothing"
        );

        let empty =
            scan_batched_parallel(&m, &Vec::<String>::new(), 4, 4, ScanOptions::unlimited());
        assert_eq!(empty.lines(), 0);
    }

    #[test]
    fn overlapped_scans_agree_with_synchronous_and_park_lines() {
        let pattern = "Subject: .*(?<Medicine name>: .+).*";
        let overlapped = semre::SemRegexBuilder::new()
            .overlapped(4)
            .build(pattern, SimLlmOracle::new())
            .unwrap();
        let sync = semre::SemRegex::new(pattern, SimLlmOracle::new()).unwrap();
        let mut corpus = lines();
        corpus.extend(lines());

        for chunk in [1, 3, 64] {
            let expected = scan_batched(&sync, &corpus, chunk, ScanOptions::unlimited());
            let want: Vec<(usize, bool)> = expected
                .records
                .iter()
                .map(|r| (r.index, r.matched))
                .collect();
            let seq = scan_batched(&overlapped, &corpus, chunk, ScanOptions::unlimited());
            let got: Vec<(usize, bool)> =
                seq.records.iter().map(|r| (r.index, r.matched)).collect();
            assert_eq!(got, want, "sequential overlapped, chunk={chunk}");
            for threads in [1, 4] {
                let par = scan_batched_parallel(
                    &overlapped,
                    &corpus,
                    chunk,
                    threads,
                    ScanOptions::unlimited(),
                );
                let got: Vec<(usize, bool)> =
                    par.records.iter().map(|r| (r.index, r.matched)).collect();
                assert_eq!(got, want, "chunk={chunk} threads={threads}");
            }
        }

        let stats = LineMatcher::resolver_pool(&overlapped)
            .expect("overlapped handle has a pool")
            .stats();
        assert!(
            stats.suspends > 0,
            "a cold pool must park oracle-bearing lines: {stats:?}"
        );
        assert_eq!(
            stats.suspends, stats.resumes,
            "every parked line resumed: {stats:?}"
        );
        assert!(stats.backend_keys > 0);
    }

    #[test]
    fn dp_matcher_supports_batched_scans() {
        let oracle = SimLlmOracle::new();
        let dp = DpMatcher::new(
            parse("Subject: .*(?<Medicine name>: .+).*").unwrap(),
            oracle,
        );
        let report = scan_batched(&dp, &lines(), 16, ScanOptions::unlimited());
        assert_eq!(report.matched_lines(), 2);
        assert!(report.batch.keys_submitted > 0);
    }
}
