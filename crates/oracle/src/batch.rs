//! The batched, deduplicating oracle query plane.
//!
//! The paper's algorithm bounds *how many* oracle queries are issued; this
//! module bounds *how they travel*.  Real backends (LLMs, Whois snapshots,
//! geo databases) amortize dramatically when questions are shipped in
//! batches, and the query-graph evaluator naturally produces bursts of
//! `(query, substring)` questions per input position.  Three pieces make up
//! the plane:
//!
//! * [`QueryKey`] — one pending question, a `(query, text)` pair borrowed
//!   from the caller;
//! * [`BatchOracle`] — the batched entry point (`resolve(&[QueryKey]) ->
//!   Vec<bool>`), with a blanket adapter so every existing [`Oracle`] keeps
//!   working (the adapter routes through [`Oracle::resolve_batch`], which
//!   wrappers such as `Instrumented` and `CachingOracle` override with
//!   batch-aware behaviour);
//! * [`QueryLedger`] — a position-keyed, deduplicating accumulator used by
//!   the evaluator: keys are enlisted as the frontier advances, duplicates
//!   across gadget copies collapse onto one slot, and a flush resolves all
//!   outstanding slots in one round trip;
//! * [`BatchSession`] — a content-keyed answer store shared across many
//!   membership tests (e.g. all lines of a grep chunk), so identical
//!   `(query, text)` questions from different lines reach the backend once.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use crate::overlap::ResolverPool;
use crate::stats::BatchStats;
use crate::Oracle;

/// A single pending oracle question: does `text` belong to the semantic
/// category named by `query`?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryKey<'a> {
    /// The query name, e.g. `"Medicine name"`.
    pub query: &'a str,
    /// The substring being judged.
    pub text: &'a [u8],
}

impl<'a> QueryKey<'a> {
    /// Convenience constructor.
    pub fn new(query: &'a str, text: &'a [u8]) -> Self {
        QueryKey { query, text }
    }
}

/// A backend that answers many oracle questions in one round trip.
///
/// Every [`Oracle`] is a `BatchOracle` through a blanket adapter that calls
/// [`Oracle::resolve_batch`] (point-wise by default, overridden by the
/// instrumentation and caching wrappers), so the batched plane can be
/// threaded through existing code without touching any backend.
pub trait BatchOracle: Send + Sync {
    /// Answers `batch[i]` in `result[i]`, for every `i`.
    fn resolve(&self, batch: &[QueryKey<'_>]) -> Vec<bool>;
}

impl<O: Oracle + ?Sized> BatchOracle for O {
    fn resolve(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        self.resolve_batch(batch)
    }
}

/// Index of a key within a [`QueryLedger`], returned by
/// [`QueryLedger::enlist`] and accepted by [`QueryLedger::answer`].
pub type LedgerSlot = usize;

/// A multiplicative hasher for integer keys: the ledger's `(query id,
/// start, end)` positions and the answer stores' SipHash values.
///
/// Neither is text a client chooses — positions are bounded by the line,
/// and a SipHash value is already keyed and uniform — so a
/// multiply-and-rotate mix is enough, at a fraction of SipHash's cost on
/// the evaluator's hottest maps.
#[derive(Clone, Copy, Debug, Default)]
struct IntHasher(u64);

impl IntHasher {
    const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

    fn mix(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        // The product's well-mixed high bits become the low bits the
        // table indexes by.
        self.0.rotate_left(26)
    }
}

/// A deduplicating accumulator of oracle questions.
///
/// The evaluator enlists keys as it discovers oracle-dependent frontier
/// transitions; keys equal to an already-enlisted one collapse onto the
/// same slot (`keys_deduped`), so gadget copies that delimit the same
/// substring cost one backend question.  A [`flush`](QueryLedger::flush)
/// materializes and resolves every outstanding slot in one batch.
///
/// The key type is generic so callers can choose the cheapest faithful
/// identity — the evaluator uses `(query id, start, end)` triples, exactly
/// the `(q, i, j)` vertices of the paper's query graph.
#[derive(Clone, Debug)]
pub struct QueryLedger<K> {
    slots: HashMap<K, LedgerSlot, BuildHasherDefault<IntHasher>>,
    keys: Vec<K>,
    answers: Vec<Option<bool>>,
    resolved: usize,
    stats: BatchStats,
}

impl<K: Eq + Hash + Clone> QueryLedger<K> {
    /// An empty ledger.
    pub fn new() -> Self {
        QueryLedger {
            slots: HashMap::default(),
            keys: Vec::new(),
            answers: Vec::new(),
            resolved: 0,
            stats: BatchStats::default(),
        }
    }

    /// Records that `key` is needed, deduplicating against every key seen
    /// so far, and returns its slot.
    pub fn enlist(&mut self, key: K) -> LedgerSlot {
        self.stats.keys_submitted += 1;
        let slot = self.keys.len();
        match self.slots.entry(key.clone()) {
            Entry::Occupied(known) => {
                self.stats.keys_deduped += 1;
                *known.get()
            }
            Entry::Vacant(fresh) => {
                fresh.insert(slot);
                self.keys.push(key);
                self.answers.push(None);
                slot
            }
        }
    }

    /// The answer for `slot`, if it has been resolved by a flush.
    pub fn answer(&self, slot: LedgerSlot) -> Option<bool> {
        self.answers[slot]
    }

    /// Number of enlisted keys not yet resolved.
    pub fn pending(&self) -> usize {
        self.keys.len() - self.resolved
    }

    /// Number of distinct keys enlisted so far.
    pub fn unique_keys(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Batch-plane counters accumulated by this ledger.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Resolves every pending slot in one batch: `materialize` turns each
    /// key into the `(query, text)` question and `resolver` answers the
    /// whole batch (typically [`BatchSession::resolve`] or
    /// [`BatchOracle::resolve`]).
    ///
    /// Does nothing when no key is pending.
    ///
    /// # Panics
    ///
    /// Panics if the resolver returns a wrong-sized answer vector.
    pub fn flush<'k, F, R>(&mut self, materialize: F, resolver: R)
    where
        F: FnMut(&K) -> QueryKey<'k>,
        R: FnOnce(&[QueryKey<'k>]) -> Vec<bool>,
    {
        let flushed = self.try_flush(materialize, |batch| Some(resolver(batch)));
        debug_assert!(flushed, "an infallible resolver always flushes");
    }

    /// The fallible flavour of [`flush`](QueryLedger::flush), for resolvers
    /// that may not have every answer yet (the overlapped resolver plane).
    ///
    /// Returns `true` when every pending slot was resolved.  When the
    /// resolver returns `None` the pending slots stay pending, no counter
    /// moves, and the caller is expected to retry after the answers it
    /// needs have been published.
    ///
    /// # Panics
    ///
    /// Panics if the resolver returns a wrong-sized answer vector.
    pub fn try_flush<'k, F, R>(&mut self, mut materialize: F, resolver: R) -> bool
    where
        F: FnMut(&K) -> QueryKey<'k>,
        R: FnOnce(&[QueryKey<'k>]) -> Option<Vec<bool>>,
    {
        // A straggler flush carries a single key: it is materialized on
        // the stack instead of into a batch vector.
        let single;
        let many: Vec<QueryKey<'k>>;
        let batch: &[QueryKey<'k>] = match &self.keys[self.resolved..] {
            [] => return true,
            [key] => {
                single = materialize(key);
                std::slice::from_ref(&single)
            }
            pending => {
                many = pending.iter().map(&mut materialize).collect();
                &many
            }
        };
        let Some(answers) = resolver(batch) else {
            return false;
        };
        assert_eq!(
            answers.len(),
            batch.len(),
            "batch resolver returned a wrong-sized answer vector"
        );
        for (slot, answer) in self.answers[self.resolved..].iter_mut().zip(answers) {
            *slot = Some(answer);
        }
        self.resolved = self.keys.len();
        self.stats.batches += 1;
        self.stats.backend_keys += batch.len() as u64;
        true
    }
}

impl<K: Eq + Hash + Clone> Default for QueryLedger<K> {
    fn default() -> Self {
        QueryLedger::new()
    }
}

/// A `query → text → answer` store with allocation-free lookups.
///
/// Hits probe with borrowed `&str` / `&[u8]` keys; a query name is owned
/// once, when its first answer is inserted.  Texts are SipHashed with the
/// store's own random keys, so a client choosing texts cannot aim
/// collisions.
#[derive(Debug, Default)]
pub(crate) struct AnswerStore {
    hasher: RandomState,
    map: HashMap<String, TextAnswers>,
}

/// The answers to one query, keyed by text.
///
/// Texts are copied into one arena and indexed by their SipHash value,
/// which the table rehashes with [`IntHasher`]: growing the table moves
/// eight-byte hashes instead of re-running SipHash over every stored text,
/// and an insert allocates nothing beyond amortized arena growth.  Distinct
/// texts with equal hashes chain through [`TextEntry::older`].
#[derive(Debug, Default)]
struct TextAnswers {
    /// The newest entry with each text hash.
    newest: HashMap<u64, usize, BuildHasherDefault<IntHasher>>,
    entries: Vec<TextEntry>,
    /// Every stored text, back to back: entry `i` spans
    /// `arena[entries[i - 1].end..entries[i].end]`.
    arena: Vec<u8>,
}

#[derive(Debug)]
struct TextEntry {
    end: usize,
    answer: bool,
    /// The next older entry whose text has the same hash.
    older: Option<usize>,
}

/// Walks the chain of equal-hash entries starting at `at` for `text`.
fn find_in_chain(
    entries: &[TextEntry],
    arena: &[u8],
    mut at: Option<usize>,
    text: &[u8],
) -> Option<usize> {
    while let Some(i) = at {
        let start = i.checked_sub(1).map_or(0, |prev| entries[prev].end);
        if &arena[start..entries[i].end] == text {
            return Some(i);
        }
        at = entries[i].older;
    }
    None
}

impl TextAnswers {
    fn find(&self, hash: u64, text: &[u8]) -> Option<usize> {
        let newest = self.newest.get(&hash).copied();
        find_in_chain(&self.entries, &self.arena, newest, text)
    }

    fn insert(&mut self, hash: u64, text: &[u8], answer: bool) {
        let fresh = self.entries.len();
        let older = match self.newest.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
                None
            }
            Entry::Occupied(mut slot) => {
                let newest = *slot.get();
                if let Some(i) = find_in_chain(&self.entries, &self.arena, Some(newest), text) {
                    self.entries[i].answer = answer;
                    return;
                }
                slot.insert(fresh);
                Some(newest)
            }
        };
        self.arena.extend_from_slice(text);
        self.entries.push(TextEntry {
            end: self.arena.len(),
            answer,
            older,
        });
    }
}

impl AnswerStore {
    pub(crate) fn get(&self, key: &QueryKey<'_>) -> Option<bool> {
        let texts = self.map.get(key.query)?;
        let i = texts.find(self.hasher.hash_one(key.text), key.text)?;
        Some(texts.entries[i].answer)
    }

    pub(crate) fn insert(&mut self, key: &QueryKey<'_>, answer: bool) {
        let hash = self.hasher.hash_one(key.text);
        // Probe before allocating: the query name is owned once per store,
        // not once per answer.
        if let Some(texts) = self.map.get_mut(key.query) {
            texts.insert(hash, key.text, answer);
            return;
        }
        self.map
            .entry(key.query.to_owned())
            .or_default()
            .insert(hash, key.text, answer);
    }

    pub(crate) fn len(&self) -> usize {
        self.map.values().map(|texts| texts.entries.len()).sum()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

/// Number of lock stripes in a [`ShardedAnswerStore`].
pub(crate) const ANSWER_STORE_SHARDS: usize = 16;

/// A lock-striped [`AnswerStore`]: 16 independent stripes, each behind its
/// own mutex, with the stripe chosen by hashing the `(query, text)` key.
///
/// Concurrent readers and writers of *different* keys almost always land on
/// different stripes, so the read-mostly fast path (a store probe) never
/// serializes a whole multi-threaded scan behind one lock the way a single
/// `Mutex<AnswerStore>` does.  Contention that does happen is counted (a
/// failed `try_lock` before the blocking lock) and surfaced through
/// [`contended`](ShardedAnswerStore::contended) for `--stats`.
#[derive(Debug)]
pub(crate) struct ShardedAnswerStore {
    stripes: Vec<std::sync::Mutex<AnswerStore>>,
    contended: std::sync::atomic::AtomicU64,
}

impl Default for ShardedAnswerStore {
    fn default() -> Self {
        ShardedAnswerStore {
            stripes: (0..ANSWER_STORE_SHARDS)
                .map(|_| std::sync::Mutex::new(AnswerStore::default()))
                .collect(),
            contended: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl ShardedAnswerStore {
    fn stripe(&self, key: &QueryKey<'_>) -> std::sync::MutexGuard<'_, AnswerStore> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.query.hash(&mut hasher);
        key.text.hash(&mut hasher);
        let stripe = &self.stripes[(hasher.finish() as usize) % ANSWER_STORE_SHARDS];
        match stripe.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                stripe.lock().expect("answer store stripe poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => {
                panic!("answer store stripe poisoned")
            }
        }
    }

    pub(crate) fn get(&self, key: &QueryKey<'_>) -> Option<bool> {
        self.stripe(key).get(key)
    }

    pub(crate) fn insert(&self, key: &QueryKey<'_>, answer: bool) {
        self.stripe(key).insert(key, answer);
    }

    pub(crate) fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("answer store stripe poisoned").len())
            .sum()
    }

    pub(crate) fn clear(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("answer store stripe poisoned").clear();
        }
    }

    /// Stripe-lock contention events observed so far.
    pub(crate) fn contended(&self) -> u64 {
        self.contended.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Where a position of an incoming batch that needs no fresh backend
/// question gets its answer from.
enum Source {
    /// Already answered by the store.
    Known(bool),
    /// A duplicate of the miss at this slot.
    Miss(usize),
}

/// A classified batch's bookkeeping once some position is answered without
/// the backend: per-position answers plus the deduplicated misses.
struct Routing<'a> {
    /// The batch's answers: store hits filled in, a placeholder wherever
    /// the miss sub-batch answers.
    answers: Vec<bool>,
    /// `(position, miss slot)` for every position the miss sub-batch
    /// answers.
    fills: Vec<(usize, usize)>,
    misses: Vec<QueryKey<'a>>,
}

/// One batch classified against an answer store: which positions the
/// store (or an earlier duplicate in the batch) answers, the deduplicated
/// misses to forward, and how many positions were answered without the
/// backend.  Shared by [`BatchSession`], [`SharedSession`] and the caching
/// wrapper so the two-phase logic cannot drift apart.
///
/// Until the first hit or duplicate the batch is its own miss sub-batch
/// and the backend's answers are the batch's answers, so no bookkeeping is
/// built.  A one-key straggler flush — the commonest batch under lazy
/// discharge — is either a single hit or a single miss, and so allocates
/// nothing here beyond its answer vector.
pub(crate) struct BatchPlan<'b, 'a> {
    batch: &'b [QueryKey<'a>],
    /// `None` while every position is a distinct miss.
    routing: Option<Routing<'a>>,
    hits: u64,
}

impl<'b, 'a> BatchPlan<'b, 'a> {
    /// Splits `batch` into store-answered positions and deduplicated
    /// misses.  `lookup` probes the store once per position; intra-batch
    /// duplicates collapse onto one miss.
    pub(crate) fn classify(
        batch: &'b [QueryKey<'a>],
        mut lookup: impl FnMut(&QueryKey<'a>) -> Option<bool>,
    ) -> Self {
        let mut routing: Option<Routing<'a>> = None;
        let mut first_miss: HashMap<(&'a str, &'a [u8]), usize> = HashMap::new();
        let mut hits = 0;
        for (pos, key) in batch.iter().enumerate() {
            let source = match lookup(key) {
                Some(answer) => Some(Source::Known(answer)),
                None => first_miss
                    .get(&(key.query, key.text))
                    .map(|&slot| Source::Miss(slot)),
            };
            let Some(source) = source else {
                let slot = match &mut routing {
                    None => pos,
                    Some(routing) => {
                        routing.fills.push((pos, routing.misses.len()));
                        routing.misses.push(*key);
                        routing.misses.len() - 1
                    }
                };
                // The last key has no later duplicate to catch.
                if pos + 1 < batch.len() {
                    first_miss.insert((key.query, key.text), slot);
                }
                continue;
            };
            hits += 1;
            // Every position before this one was a distinct miss.
            let routing = routing.get_or_insert_with(|| Routing {
                answers: vec![false; batch.len()],
                fills: (0..pos).map(|p| (p, p)).collect(),
                misses: batch[..pos].to_vec(),
            });
            match source {
                Source::Known(answer) => routing.answers[pos] = answer,
                Source::Miss(slot) => routing.fills.push((pos, slot)),
            }
        }
        BatchPlan {
            batch,
            routing,
            hits,
        }
    }

    /// The deduplicated questions the store could not answer, in batch
    /// order.
    pub(crate) fn misses(&self) -> &[QueryKey<'a>] {
        match &self.routing {
            None => self.batch,
            Some(routing) => &routing.misses,
        }
    }

    /// Positions answered without the backend (store hits plus intra-batch
    /// duplicates).
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Combines the miss sub-batch's answers back into per-position order.
    ///
    /// # Panics
    ///
    /// Panics if `miss_answers` does not answer exactly the misses.
    pub(crate) fn into_answers(self, miss_answers: Vec<bool>) -> Vec<bool> {
        assert_eq!(
            miss_answers.len(),
            self.misses().len(),
            "backend returned a wrong-sized answer vector"
        );
        let Some(mut routing) = self.routing else {
            return miss_answers;
        };
        for (pos, slot) in routing.fills {
            routing.answers[pos] = miss_answers[slot];
        }
        routing.answers
    }
}

/// Resolves `misses` through `oracle` with the flush ordered by the
/// oracle's own [`question_cost`](Oracle::question_cost) model, cheapest
/// first; answers come back in the original miss order.
///
/// Cheap questions are the most likely to be answered without the
/// authoritative backend (a cache or heuristic tier), so flushing them
/// first front-loads the pruning.  Answers are keyed, so the reordering
/// is invisible to callers; when every question prices the same (any flat
/// backend under the default cost model) the batch is forwarded as-is, and
/// a single question is forwarded without being priced at all.
fn resolve_cost_ordered(oracle: &dyn Oracle, misses: &[QueryKey<'_>]) -> Vec<bool> {
    if misses.len() < 2 {
        return oracle.resolve_batch(misses);
    }
    let costs: Vec<u32> = misses
        .iter()
        .map(|key| oracle.question_cost(key.query, key.text))
        .collect();
    if costs.windows(2).all(|pair| pair[0] == pair[1]) {
        return oracle.resolve_batch(misses);
    }
    let mut order: Vec<usize> = (0..misses.len()).collect();
    // Stable, so equal-cost questions keep their scan order and the
    // flush stays deterministic.
    order.sort_by_key(|&i| costs[i]);
    let ordered: Vec<QueryKey<'_>> = order.iter().map(|&i| misses[i]).collect();
    let answers = oracle.resolve_batch(&ordered);
    let mut by_miss = vec![false; misses.len()];
    for (slot, &i) in order.iter().enumerate() {
        by_miss[i] = answers[slot];
    }
    by_miss
}

/// A content-keyed answer store shared across membership tests.
///
/// A session owns a borrowed backend plus a `(query, text) → bool` map.
/// Resolving a batch first consults the map (and deduplicates identical
/// questions *within* the batch), then ships the remaining questions to the
/// backend as one sub-batch through [`Oracle::resolve_batch`].  Sharing one
/// session across all lines of a grep chunk is what turns per-line batches
/// into chunk-level batches.
pub struct BatchSession<'o> {
    oracle: &'o dyn Oracle,
    overlap: Option<&'o ResolverPool>,
    cache: AnswerStore,
    stats: BatchStats,
}

impl<'o> BatchSession<'o> {
    /// A fresh session over `oracle`.
    pub fn new(oracle: &'o dyn Oracle) -> Self {
        BatchSession {
            oracle,
            overlap: None,
            cache: AnswerStore::default(),
            stats: BatchStats::default(),
        }
    }

    /// A session that resolves through a background [`ResolverPool`]
    /// instead of calling `oracle` inline: misses are *submitted* to the
    /// pool and [`try_resolve`](BatchSession::try_resolve) reports them as
    /// not-yet-available, letting the caller suspend the current line and
    /// keep scanning while the pool works.
    pub fn with_pool(oracle: &'o dyn Oracle, pool: &'o ResolverPool) -> Self {
        BatchSession {
            oracle,
            overlap: Some(pool),
            cache: AnswerStore::default(),
            stats: BatchStats::default(),
        }
    }

    /// The resolver pool this session submits to, if overlapped.
    pub fn pool(&self) -> Option<&'o ResolverPool> {
        self.overlap
    }

    /// The backend this session resolves against.
    pub fn backend(&self) -> &'o dyn Oracle {
        self.oracle
    }

    /// Answers `batch[i]` in `result[i]`, consulting the session store
    /// first and forwarding at most one deduplicated sub-batch to the
    /// backend.
    pub fn resolve(&mut self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        self.stats.keys_submitted += batch.len() as u64;
        let plan = BatchPlan::classify(batch, |key| self.cache.get(key));
        self.stats.keys_deduped += plan.hits();

        let misses = plan.misses();
        let miss_answers = if misses.is_empty() {
            Vec::new()
        } else {
            self.stats.batches += 1;
            self.stats.backend_keys += misses.len() as u64;
            let answers = resolve_cost_ordered(self.oracle, misses);
            // Placeholder answers from a faulted backend (see the
            // fault-sink contract in the `error` module) must not enter
            // the session store.
            if !crate::error::fault_pending() {
                for (key, &answer) in misses.iter().zip(&answers) {
                    self.cache.insert(key, answer);
                }
            }
            answers
        };
        plan.into_answers(miss_answers)
    }

    /// The non-blocking flavour of [`resolve`](BatchSession::resolve) for
    /// overlapped sessions: answers come from the session store or from
    /// answers the [`ResolverPool`] has already published; anything still
    /// unknown is submitted to the pool and the whole batch reports
    /// `None`, so the caller can suspend and retry once the pool has made
    /// progress.
    ///
    /// Sessions without a pool (constructed by
    /// [`new`](BatchSession::new)) resolve inline and never return `None`,
    /// so callers can use `try_resolve` unconditionally.
    ///
    /// Counters only move when the batch completes, so a retried batch is
    /// counted once — exactly as a synchronous session would count it.
    pub fn try_resolve(&mut self, batch: &[QueryKey<'_>]) -> Option<Vec<bool>> {
        let Some(pool) = self.overlap else {
            return Some(self.resolve(batch));
        };
        if batch.is_empty() {
            return Some(Vec::new());
        }
        let plan = BatchPlan::classify(batch, |key| self.cache.get(key));
        let misses = plan.misses();
        let mut pending = Vec::new();
        let miss_answers: Vec<Option<bool>> = misses
            .iter()
            .map(|key| {
                let answer = pool.lookup(key);
                if answer.is_none() {
                    pending.push(*key);
                }
                answer
            })
            .collect();
        if !pending.is_empty() {
            // Submit cheapest-first: the pool drains its queue in FIFO
            // order, so the questions most likely to prune (cache or
            // heuristic-tier answers) complete ahead of LLM-class ones.
            pending.sort_by_cached_key(|key| self.oracle.question_cost(key.query, key.text));
            pool.submit(&pending);
            return None;
        }
        self.stats.keys_submitted += batch.len() as u64;
        self.stats.keys_deduped += plan.hits();
        let answers: Vec<bool> = miss_answers
            .into_iter()
            .map(|answer| answer.expect("every miss resolved"))
            .collect();
        if !misses.is_empty() {
            // The pool's store plays the backend role here: these keys
            // went past the session, so they count as backend keys even
            // though the true backend round trips happened in the pool
            // (and are reported by its own counters).
            self.stats.batches += 1;
            self.stats.backend_keys += misses.len() as u64;
            // A failed pool key completes as a placeholder with a fault
            // pending (recorded by `pool.lookup`); keep it out of the
            // session store.
            if !crate::error::fault_pending() {
                for (key, &answer) in misses.iter().zip(&answers) {
                    self.cache.insert(key, answer);
                }
            }
        }
        Some(plan.into_answers(answers))
    }

    /// Batch-plane counters accumulated by this session.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Number of distinct `(query, text)` answers currently stored.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the session store is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.len() == 0
    }

    /// Drops all stored answers and counters (e.g. at a chunk boundary).
    pub fn clear(&mut self) {
        self.cache.clear();
        self.stats = BatchStats::default();
    }
}

impl std::fmt::Debug for BatchSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSession")
            .field("backend", &self.oracle.describe())
            .field("entries", &self.cache.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// A session's binding to a cross-process answer log: the store itself
/// plus the spec tag its records are filed under.
#[derive(Debug)]
struct PersistBinding {
    store: std::sync::Arc<crate::persist::PersistentAnswerStore>,
    spec: String,
}

/// Shared state behind every clone of a [`SharedSession`].
#[derive(Debug, Default)]
struct SharedSessionState {
    cache: ShardedAnswerStore,
    keys_submitted: std::sync::atomic::AtomicU64,
    keys_deduped: std::sync::atomic::AtomicU64,
    backend_keys: std::sync::atomic::AtomicU64,
    batches: std::sync::atomic::AtomicU64,
    persisted_hits: std::sync::atomic::AtomicU64,
    persist: Option<PersistBinding>,
}

/// A thread-safe answer store shared across *many* scans — the cross-file
/// generalization of [`BatchSession`].
///
/// A [`BatchSession`] lives on one thread for the duration of one chunk; a
/// `SharedSession` is `Clone + Send + Sync` and implements [`Oracle`]
/// itself, so it can be interposed *between* a matcher (or many matchers on
/// many threads) and the real backend: every per-chunk session that misses
/// its local store forwards the question here, and only questions never
/// seen by *any* chunk of *any* file reach the backend.  This is what makes
/// a multi-file scan dedupe oracle questions globally — a medicine name
/// repeated across a whole directory tree is judged once.
///
/// The store is **lock-striped** (`ShardedAnswerStore`, 16 stripes keyed
/// by hashing the question), so concurrent workers probing different keys
/// do not serialize behind one mutex; observed stripe contention is
/// reported by [`contended`](SharedSession::contended).
///
/// Answer-level counters are exposed as a [`BatchStats`]:
/// `keys_submitted` / `keys_deduped` count questions arriving here (after
/// per-chunk dedup), `backend_keys` counts questions that actually reached
/// the backend.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use semre_oracle::{Instrumented, Oracle, SharedSession, SimLlmOracle};
///
/// let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
/// let shared = SharedSession::new(backend.clone());
/// // Two "files" asking the same question: one backend call.
/// assert!(shared.holds("Medicine name", b"tramadol"));
/// assert!(shared.clone().holds("Medicine name", b"tramadol"));
/// assert_eq!(backend.stats().calls, 1);
/// assert_eq!(shared.stats().keys_deduped, 1);
/// ```
#[derive(Clone)]
pub struct SharedSession {
    oracle: std::sync::Arc<dyn Oracle>,
    state: std::sync::Arc<SharedSessionState>,
}

impl std::fmt::Debug for SharedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSession")
            .field("backend", &self.oracle.describe())
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedSession {
    /// A fresh shared session over `oracle`.  Clones share the same store
    /// and counters.
    pub fn new(oracle: std::sync::Arc<dyn Oracle>) -> Self {
        SharedSession {
            oracle,
            state: std::sync::Arc::new(SharedSessionState::default()),
        }
    }

    /// A shared session layered over a cross-process answer log.
    ///
    /// The probe order becomes: in-memory sharded store (a hit counts as
    /// `keys_deduped`), then `store` under the tag `spec` (a hit counts
    /// as [`persisted_hits`](SharedSession::persisted_hits) and is pulled
    /// into the in-memory store), and only then the backend — whose fresh
    /// answers are recorded back to `store`.  A question any earlier run
    /// answered therefore never reaches the backend: a warm restart
    /// issues zero backend questions for previously-seen keys.
    ///
    /// `spec` is the canonical oracle tag records are filed under (the
    /// CLI's `OracleSpec` display form); sessions over different oracles
    /// can share one store as long as their tags differ.
    pub fn with_persistence(
        oracle: std::sync::Arc<dyn Oracle>,
        store: std::sync::Arc<crate::persist::PersistentAnswerStore>,
        spec: impl Into<String>,
    ) -> Self {
        SharedSession {
            oracle,
            state: std::sync::Arc::new(SharedSessionState {
                persist: Some(PersistBinding {
                    store,
                    spec: spec.into(),
                }),
                ..SharedSessionState::default()
            }),
        }
    }

    /// The backend this session resolves against.
    pub fn backend(&self) -> &std::sync::Arc<dyn Oracle> {
        &self.oracle
    }

    /// The persistent answer store this session records to, if any.
    pub fn persist_store(&self) -> Option<&std::sync::Arc<crate::persist::PersistentAnswerStore>> {
        self.state.persist.as_ref().map(|binding| &binding.store)
    }

    /// Batch-plane counters accumulated across every clone.
    pub fn stats(&self) -> BatchStats {
        use std::sync::atomic::Ordering::Relaxed;
        BatchStats {
            batches: self.state.batches.load(Relaxed),
            keys_submitted: self.state.keys_submitted.load(Relaxed),
            keys_deduped: self.state.keys_deduped.load(Relaxed),
            backend_keys: self.state.backend_keys.load(Relaxed),
        }
    }

    /// Questions answered by the persistent store (a disk hit, distinct
    /// from `keys_deduped`, which counts in-memory hits).  Always zero
    /// for sessions built without
    /// [`with_persistence`](SharedSession::with_persistence).
    pub fn persisted_hits(&self) -> u64 {
        self.state
            .persisted_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of lock stripes in the sharded answer store.
    pub fn shards(&self) -> usize {
        ANSWER_STORE_SHARDS
    }

    /// Stripe-lock contention events observed so far: a probe or insert
    /// found its stripe held by another thread and had to block.
    pub fn contended(&self) -> u64 {
        self.state.cache.contended()
    }

    /// Number of distinct `(query, text)` answers currently stored.
    pub fn len(&self) -> usize {
        self.state.cache.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all stored answers and counters.  The persistent store (if
    /// any) is *not* cleared: it outlives sessions by design.
    pub fn clear(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.state.cache.clear();
        self.state.keys_submitted.store(0, Relaxed);
        self.state.keys_deduped.store(0, Relaxed);
        self.state.backend_keys.store(0, Relaxed);
        self.state.batches.store(0, Relaxed);
        self.state.persisted_hits.store(0, Relaxed);
    }
}

impl Oracle for SharedSession {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        self.state.keys_submitted.fetch_add(1, Relaxed);
        let key = QueryKey::new(query, text);
        if let Some(answer) = self.state.cache.get(&key) {
            self.state.keys_deduped.fetch_add(1, Relaxed);
            return answer;
        }
        if let Some(binding) = &self.state.persist {
            if let Some(answer) = binding.store.lookup(&binding.spec, query, text) {
                self.state.persisted_hits.fetch_add(1, Relaxed);
                self.state.cache.insert(&key, answer);
                return answer;
            }
        }
        // The backend call happens outside any stripe lock so a slow
        // oracle does not serialize unrelated questions from other files'
        // workers.  Two threads racing on the same fresh key may both
        // reach the backend; determinism (the Oracle contract) makes that
        // harmless, and the store converges to one entry.
        let answer = self.oracle.holds(query, text);
        self.state.backend_keys.fetch_add(1, Relaxed);
        self.state.batches.fetch_add(1, Relaxed);
        // A faulted backend answers with a placeholder (fault-sink
        // contract): never cache it, and above all never persist it —
        // a placeholder in the answer log would replay as truth forever.
        if !crate::error::fault_pending() {
            self.state.cache.insert(&key, answer);
            if let Some(binding) = &self.state.persist {
                binding.store.record(&binding.spec, query, text, answer);
            }
        }
        answer
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        use std::sync::atomic::Ordering::Relaxed;
        self.state
            .keys_submitted
            .fetch_add(batch.len() as u64, Relaxed);
        if batch.is_empty() {
            return Vec::new();
        }
        // The classifying lookup layers the persistent store behind the
        // in-memory one: a disk hit is pulled into memory (so intra-batch
        // duplicates of it count as memory hits) and tallied separately.
        let mut persisted = 0u64;
        let plan = BatchPlan::classify(batch, |key| {
            if let Some(answer) = self.state.cache.get(key) {
                return Some(answer);
            }
            let binding = self.state.persist.as_ref()?;
            let answer = binding.store.lookup(&binding.spec, key.query, key.text)?;
            persisted += 1;
            self.state.cache.insert(key, answer);
            Some(answer)
        });
        self.state.persisted_hits.fetch_add(persisted, Relaxed);
        self.state
            .keys_deduped
            .fetch_add(plan.hits() - persisted, Relaxed);
        let misses = plan.misses();
        let miss_answers = if misses.is_empty() {
            Vec::new()
        } else {
            self.state.batches.fetch_add(1, Relaxed);
            self.state
                .backend_keys
                .fetch_add(misses.len() as u64, Relaxed);
            let answers = resolve_cost_ordered(self.oracle.as_ref(), misses);
            // Same placeholder rule as `holds`: a pending fault keeps
            // the whole miss batch out of the cache and the answer log.
            if !crate::error::fault_pending() {
                for (key, &answer) in misses.iter().zip(&answers) {
                    self.state.cache.insert(key, answer);
                    if let Some(binding) = &self.state.persist {
                        binding
                            .store
                            .record(&binding.spec, key.query, key.text, answer);
                    }
                }
            }
            answers
        };
        plan.into_answers(miss_answers)
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        // A key any clone has already answered is free; fresh keys cost
        // whatever the backend charges.
        let key = QueryKey::new(query, text);
        if self.state.cache.get(&key).is_some() {
            return 0;
        }
        self.oracle.question_cost(query, text)
    }

    fn describe(&self) -> String {
        format!("shared-session({})", self.oracle.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{PredicateOracle, SetOracle};
    use crate::wrappers::Instrumented;

    fn keys<'a>(pairs: &'a [(&'a str, &'a [u8])]) -> Vec<QueryKey<'a>> {
        pairs.iter().map(|&(q, t)| QueryKey::new(q, t)).collect()
    }

    #[test]
    fn blanket_adapter_answers_pointwise() {
        let mut set = SetOracle::new();
        set.insert("City", "Paris");
        let batch = keys(&[("City", b"Paris"), ("City", b"Gotham")]);
        let answers = BatchOracle::resolve(&set, &batch);
        assert_eq!(answers, vec![true, false]);
        // Trait objects work on both sides of the adapter.
        let dynamic: &dyn Oracle = &set;
        assert_eq!(BatchOracle::resolve(&dynamic, &batch), vec![true, false]);
    }

    #[test]
    fn ledger_deduplicates_and_flushes_once() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| t.len() % 2 == 0));
        let input = b"abcdef";
        let mut ledger: QueryLedger<(u32, u32, u32)> = QueryLedger::new();
        let a = ledger.enlist((0, 1, 3));
        let b = ledger.enlist((0, 3, 7));
        let dup = ledger.enlist((0, 1, 3));
        assert_eq!(a, dup);
        assert_eq!(ledger.pending(), 2);
        assert_eq!(ledger.unique_keys(), 2);
        assert_eq!(ledger.stats().keys_submitted, 3);
        assert_eq!(ledger.stats().keys_deduped, 1);
        assert!(ledger.answer(a).is_none());

        ledger.flush(
            |&(_, s, e)| QueryKey::new("q", &input[(s - 1) as usize..(e - 1) as usize]),
            |batch| oracle.resolve_batch(batch),
        );
        assert_eq!(ledger.answer(a), Some(true)); // "ab"
        assert_eq!(ledger.answer(b), Some(true)); // "cdef"
        assert_eq!(ledger.pending(), 0);
        assert_eq!(ledger.stats().batches, 1);
        assert_eq!(ledger.stats().backend_keys, 2);
        assert_eq!(oracle.stats().calls, 2);

        // A flush with nothing pending is free.
        ledger.flush(
            |_| QueryKey::new("q", b""),
            |batch| oracle.resolve_batch(batch),
        );
        assert_eq!(ledger.stats().batches, 1);

        // Later enlists only resolve the new suffix.
        let c = ledger.enlist((0, 1, 2));
        ledger.flush(
            |&(_, s, e)| QueryKey::new("q", &input[(s - 1) as usize..(e - 1) as usize]),
            |batch| oracle.resolve_batch(batch),
        );
        assert_eq!(ledger.answer(c), Some(false)); // "a"
        assert_eq!(oracle.stats().calls, 3);
        assert_eq!(ledger.stats().batches, 2);
    }

    #[test]
    fn session_shares_answers_across_batches() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| t.starts_with(b"a")));
        let mut session = BatchSession::new(&oracle);
        let first = keys(&[("q", b"ab"), ("q", b"cd"), ("q", b"ab")]);
        assert_eq!(session.resolve(&first), vec![true, false, true]);
        // Intra-batch duplicate: only two questions reached the backend.
        assert_eq!(oracle.stats().calls, 2);
        assert_eq!(session.stats().batches, 1);
        assert_eq!(session.stats().keys_submitted, 3);
        assert_eq!(session.stats().keys_deduped, 1);
        assert_eq!(session.stats().backend_keys, 2);
        assert_eq!(session.len(), 2);

        // A second batch reuses the stored answers entirely.
        let second = keys(&[("q", b"cd"), ("q", b"ab")]);
        assert_eq!(session.resolve(&second), vec![false, true]);
        assert_eq!(
            oracle.stats().calls,
            2,
            "fully deduplicated batch must not reach the backend"
        );
        assert_eq!(session.stats().batches, 1);
        assert_eq!(session.stats().keys_deduped, 3);

        session.clear();
        assert!(session.is_empty());
        assert_eq!(session.stats(), BatchStats::default());
        assert_eq!(session.resolve(&[]), Vec::<bool>::new());
    }

    #[test]
    fn shared_session_dedupes_across_clones_and_threads() {
        use std::sync::Arc;
        let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            t.starts_with(b"a")
        })));
        let shared = SharedSession::new(backend.clone());
        assert!(shared.is_empty());

        // Point-wise and batched questions share one store.
        assert!(shared.holds("q", b"ab"));
        assert_eq!(
            shared.resolve_batch(&keys(&[("q", b"ab"), ("q", b"cd")])),
            [true, false]
        );
        assert_eq!(backend.stats().calls, 2, "ab answered from the store");
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.stats().keys_submitted, 3);
        assert_eq!(shared.stats().keys_deduped, 1);
        assert_eq!(shared.stats().backend_keys, 2);

        // Clones on other threads see (and extend) the same store.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let clone = shared.clone();
                scope.spawn(move || {
                    assert!(clone.holds("q", b"ab"));
                    assert!(!clone.holds("q", b"cd"));
                });
            }
        });
        assert_eq!(backend.stats().calls, 2, "no new backend questions");
        assert!(shared.stats().keys_deduped >= 9);
        assert!(shared.describe().contains("shared-session"));

        shared.clear();
        assert!(shared.is_empty());
        assert_eq!(shared.stats(), BatchStats::default());
    }

    #[test]
    fn batch_sessions_layered_over_a_shared_session_dedupe_globally() {
        use std::sync::Arc;
        // The multi-file topology: each "file" scans with its own
        // BatchSession, all of them resolving through one SharedSession.
        let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            t.len() % 2 == 0
        })));
        let shared = SharedSession::new(backend.clone());
        for _file in 0..3 {
            let mut session = BatchSession::new(&shared);
            assert_eq!(
                session.resolve(&keys(&[("q", b"ab"), ("q", b"abc")])),
                [true, false]
            );
        }
        assert_eq!(
            backend.stats().calls,
            2,
            "three files, one backend question per distinct key"
        );
        assert_eq!(shared.stats().backend_keys, 2);
        assert_eq!(shared.stats().keys_submitted, 6);
        assert_eq!(shared.stats().keys_deduped, 4);
    }

    #[test]
    fn shared_session_layers_a_persistent_store_between_memory_and_backend() {
        use crate::persist::PersistentAnswerStore;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("semre-batch-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("answers.log");
        let _ = std::fs::remove_file(&log);

        // Cold run: everything reaches the backend once and is recorded.
        {
            let store = Arc::new(PersistentAnswerStore::open(&log).unwrap());
            let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
                t.len() % 2 == 0
            })));
            let shared = SharedSession::with_persistence(backend.clone(), store, "pred");
            assert_eq!(
                shared.resolve_batch(&keys(&[("q", b"ab"), ("q", b"abc"), ("q", b"ab")])),
                [true, false, true]
            );
            assert!(shared.holds("q", b"ab"));
            assert_eq!(backend.stats().calls, 2);
            assert_eq!(shared.stats().backend_keys, 2);
            assert_eq!(shared.persisted_hits(), 0);
            assert_eq!(shared.stats().keys_deduped, 2);
            assert!(shared.persist_store().is_some());
        }

        // Warm run: a fresh session + fresh backend, same log.  Zero
        // backend questions; hits are attributed to the disk store, not
        // the in-memory dedupe counter.
        {
            let store = Arc::new(PersistentAnswerStore::open(&log).unwrap());
            assert_eq!(store.replay_report().live, 2);
            let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
                t.len() % 2 == 0
            })));
            let shared = SharedSession::with_persistence(backend.clone(), store, "pred");
            assert_eq!(
                shared.resolve_batch(&keys(&[("q", b"ab"), ("q", b"abc"), ("q", b"ab")])),
                [true, false, true]
            );
            assert!(!shared.holds("q", b"abc"));
            assert_eq!(
                backend.stats().calls,
                0,
                "warm restart: no backend questions"
            );
            assert_eq!(shared.stats().backend_keys, 0);
            assert_eq!(shared.persisted_hits(), 2, "one disk hit per distinct key");
            assert_eq!(
                shared.stats().keys_deduped,
                2,
                "intra-batch duplicate + repeated holds hit memory"
            );
            // A different spec tag does not see the answers.
            let other = SharedSession::with_persistence(
                backend.clone(),
                shared.persist_store().unwrap().clone(),
                "other-spec",
            );
            assert!(other.holds("q", b"ab"));
            assert_eq!(other.persisted_hits(), 0);
            assert_eq!(backend.stats().calls, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_answers_chain_colliding_hashes() {
        // Distinct texts forced onto one hash stay distinct entries.
        let mut texts = TextAnswers::default();
        texts.insert(7, b"ab", true);
        texts.insert(7, b"", false);
        texts.insert(7, b"cde", true);
        texts.insert(9, b"ab", false);
        assert_eq!(texts.entries.len(), 4);
        let answer = |texts: &TextAnswers, hash, text: &[u8]| {
            texts.find(hash, text).map(|i| texts.entries[i].answer)
        };
        assert_eq!(answer(&texts, 7, b"ab"), Some(true));
        assert_eq!(answer(&texts, 7, b""), Some(false));
        assert_eq!(answer(&texts, 7, b"cde"), Some(true));
        assert_eq!(answer(&texts, 9, b"ab"), Some(false));
        assert_eq!(answer(&texts, 7, b"abc"), None);
        assert_eq!(answer(&texts, 8, b"ab"), None);
        // Re-inserting a stored text overwrites it in place.
        texts.insert(7, b"ab", false);
        assert_eq!(texts.entries.len(), 4);
        assert_eq!(answer(&texts, 7, b"ab"), Some(false));
    }

    #[test]
    fn sharded_store_is_consistent_under_concurrent_mixed_access() {
        let store = ShardedAnswerStore::default();
        std::thread::scope(|scope| {
            for worker in 0..8u32 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..64u32 {
                        let text = format!("text-{}", (worker + i) % 16);
                        let key = QueryKey::new("q", text.as_bytes());
                        store.insert(&key, (worker + i) % 16 % 2 == 0);
                        assert_eq!(store.get(&key), Some((worker + i) % 16 % 2 == 0));
                    }
                });
            }
        });
        assert_eq!(store.len(), 16, "one entry per distinct key");
        store.clear();
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn try_flush_leaves_slots_pending_until_answers_arrive() {
        let input = b"abcdef";
        let mut ledger: QueryLedger<(u32, u32, u32)> = QueryLedger::new();
        let a = ledger.enlist((0, 1, 3));
        let materialize = |&(_, s, e): &(u32, u32, u32)| {
            QueryKey::new("q", &input[(s - 1) as usize..(e - 1) as usize])
        };

        // A resolver without answers leaves the ledger untouched.
        assert!(!ledger.try_flush(materialize, |_| None));
        assert!(ledger.answer(a).is_none());
        assert_eq!(ledger.pending(), 1);
        assert_eq!(ledger.stats().batches, 0);
        assert_eq!(ledger.stats().backend_keys, 0);

        // The retry resolves the same pending suffix and counts one batch.
        assert!(ledger.try_flush(materialize, |batch| Some(vec![true; batch.len()])));
        assert_eq!(ledger.answer(a), Some(true));
        assert_eq!(ledger.pending(), 0);
        assert_eq!(ledger.stats().batches, 1);
        assert_eq!(ledger.stats().backend_keys, 1);

        // Nothing pending: trivially flushed.
        assert!(ledger.try_flush(materialize, |_| None));
    }

    #[test]
    fn try_resolve_without_a_pool_is_resolve() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| t.starts_with(b"a")));
        let mut session = BatchSession::new(&oracle);
        assert!(session.pool().is_none());
        let batch = keys(&[("q", b"ab"), ("q", b"cd")]);
        assert_eq!(session.try_resolve(&batch), Some(vec![true, false]));
        assert_eq!(session.stats().backend_keys, 2);
    }

    /// A backend that records every `resolve_batch` call it receives and,
    /// while `faulty` is set, fails them the way a fallible adapter does:
    /// a fault in the sink plus placeholder `false` answers.
    #[derive(Default)]
    struct RecordingBackend {
        calls: std::sync::Mutex<Vec<RecordedBatch>>,
        faulty: std::sync::atomic::AtomicBool,
    }

    /// One `resolve_batch` call as the backend saw it.
    type RecordedBatch = Vec<(String, Vec<u8>)>;

    impl RecordingBackend {
        fn calls(&self) -> Vec<RecordedBatch> {
            self.calls.lock().unwrap().clone()
        }
    }

    impl Oracle for RecordingBackend {
        fn holds(&self, _: &str, text: &[u8]) -> bool {
            text.starts_with(b"a")
        }

        fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
            self.calls.lock().unwrap().push(
                batch
                    .iter()
                    .map(|key| (key.query.to_owned(), key.text.to_vec()))
                    .collect(),
            );
            if self.faulty.load(std::sync::atomic::Ordering::Relaxed) {
                crate::error::record_fault(crate::OracleError::transient("backend down"));
                return vec![false; batch.len()];
            }
            batch
                .iter()
                .map(|key| self.holds(key.query, key.text))
                .collect()
        }
    }

    /// Asks the question `input[start..end]` the way the evaluator's
    /// straggler path does: enlist one ledger key, flush it alone.
    fn ask_straggler(
        ledger: &mut QueryLedger<(u32, u32, u32)>,
        session: &mut BatchSession<'_>,
        input: &[u8],
        start: u32,
        end: u32,
    ) -> bool {
        let slot = ledger.enlist((0, start, end));
        assert!(ledger.try_flush(
            |&(_, s, e)| QueryKey::new("q", &input[s as usize..e as usize]),
            |batch| {
                assert_eq!(batch.len(), 1, "a straggler flush carries one key");
                session.try_resolve(batch)
            },
        ));
        ledger.answer(slot).expect("flushed")
    }

    #[test]
    fn one_key_miss_reaches_the_backend_as_one_call() {
        let backend = RecordingBackend::default();
        let mut session = BatchSession::new(&backend);
        let mut ledger = QueryLedger::new();
        assert!(ask_straggler(&mut ledger, &mut session, b"abab", 0, 2));
        assert_eq!(
            backend.calls(),
            vec![vec![("q".to_owned(), b"ab".to_vec())]]
        );
        let stats = session.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.backend_keys, 1);
        assert_eq!(stats.keys_submitted, 1);
        assert_eq!(stats.keys_deduped, 0);
        assert_eq!(session.len(), 1);
    }

    #[test]
    fn one_key_repeat_is_answered_by_the_store() {
        let backend = RecordingBackend::default();
        let mut session = BatchSession::new(&backend);
        let mut ledger = QueryLedger::new();
        assert!(ask_straggler(&mut ledger, &mut session, b"abab", 0, 2));
        // The same text at another position: a new ledger key, but the
        // session store already holds its answer.
        assert!(ask_straggler(&mut ledger, &mut session, b"abab", 2, 4));
        assert_eq!(backend.calls().len(), 1, "no second backend call");
        let stats = session.stats();
        assert_eq!(stats.keys_submitted, 2);
        assert_eq!(stats.keys_deduped, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.backend_keys, 1);
        assert_eq!(ledger.stats().batches, 2, "each straggler is its own flush");
    }

    #[test]
    fn one_key_faulted_placeholder_is_returned_but_not_stored() {
        crate::error::clear_fault();
        let backend = RecordingBackend::default();
        let mut session = BatchSession::new(&backend);
        let mut ledger = QueryLedger::new();
        backend
            .faulty
            .store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(
            !ask_straggler(&mut ledger, &mut session, b"abab", 0, 2),
            "the placeholder answer comes back"
        );
        assert!(crate::error::take_fault().is_some());
        assert!(session.is_empty(), "the placeholder is not stored");

        // The next ask of the same text reaches the backend again.
        backend
            .faulty
            .store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(ask_straggler(&mut ledger, &mut session, b"abab", 2, 4));
        assert_eq!(backend.calls().len(), 2);
        assert_eq!(session.stats().backend_keys, 2);
        assert_eq!(session.stats().keys_deduped, 0);
        assert_eq!(session.len(), 1);
    }

    #[test]
    fn plan_routes_hits_and_duplicates_after_leading_misses() {
        // Two distinct misses, then a store hit and a duplicate of the
        // first miss: the plan switches from forwarding the batch as it
        // stands to routing, and the answers land in batch order.
        let batch = keys(&[("q", b"m1"), ("q", b"m2"), ("q", b"hit"), ("q", b"m1")]);
        let plan = BatchPlan::classify(&batch, |key| (key.text == b"hit").then_some(true));
        assert_eq!(plan.hits(), 2);
        assert_eq!(plan.misses(), &batch[..2]);
        assert_eq!(
            plan.into_answers(vec![false, true]),
            vec![false, true, true, false]
        );

        // Every key a distinct miss: the batch itself is forwarded.
        let plan = BatchPlan::classify(&batch[..2], |_| None);
        assert_eq!(plan.hits(), 0);
        assert_eq!(plan.misses(), &batch[..2]);
        assert_eq!(plan.into_answers(vec![true, false]), vec![true, false]);
    }

    #[test]
    fn session_distinguishes_queries_with_identical_text() {
        let oracle = PredicateOracle::new(|q: &str, _: &[u8]| q == "yes");
        let mut session = BatchSession::new(&oracle);
        let batch = keys(&[("yes", b"x"), ("no", b"x")]);
        assert_eq!(session.resolve(&batch), vec![true, false]);
        assert_eq!(session.len(), 2);
        assert!(format!("{session:?}").contains("entries"));
    }
}
