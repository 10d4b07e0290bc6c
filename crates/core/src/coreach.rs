//! Memoized co-reachability: the oracle-free backward pass of Note A.4 as a
//! lazily built reverse automaton.
//!
//! Pruning restricts evaluation to query-graph vertices from which `end` is
//! syntactically reachable.  The co-reachability of gadget copy `p` — three
//! layers of `|S|` bits — depends on only two things: the layer-1 bits of
//! copy `p + 1` and the input byte between the two copies.  Sweeping every
//! line backwards from scratch therefore recomputes the same few sets over
//! and over: the Table 1 SNFAs have 24–72 states but only 3–11 byte
//! classes, and a corpus visits a small number of distinct sets.
//!
//! [`CoReach`] memoizes the sweep the way [`LazyDfa`] memoizes the forward
//! skeleton simulation:
//!
//! * **states** are interned `3·|S|` bit sets, one gadget copy's
//!   co-reachability each;
//! * **transitions** are keyed by (set, byte class) and computed on first
//!   use by [`step`], the only place the backward rules live;
//! * **caches** are pooled per matcher and checked out only for the
//!   backward pass, so concurrent evaluations never share one and a line
//!   parked on the resolver pool holds none (its bitmap is a copy).
//!   Anchored and search evaluation keep separate pools: in search mode
//!   the accept vertex is a layer-3 target at every position, so the same
//!   successor bits lead to different sets.
//!
//! A line then costs `|w|` table lookups plus one copy of each position's
//! set into the evaluator's flat bitmap.  A cache is cleared at the start
//! of a line once it holds more than a fixed number of sets; within one
//! line it gains at most `|w| + 1`, so no fallback path is needed.
//!
//! [`LazyDfa`]: semre_automata::LazyDfa

use std::collections::HashMap;

use semre_automata::{ByteClasses, Snfa};

use crate::eval::ScratchPool;
use crate::topology::GadgetTopology;

/// Sets a cache may hold at the start of a line before it is cleared.
/// The benchmark corpora intern far fewer; the bound only keeps adversarial
/// input from growing a pooled cache without limit across lines.
const MAX_CACHED_SETS: usize = 1024;

/// Sentinel transition: not computed yet.
const UNKNOWN: u32 = u32::MAX;

/// One backward step of the co-reachability sweep.  Writes into `out` the
/// co-reachability of one gadget copy — layers 1, 2 and 3, `|S|` bits each,
/// in that order — given `next`: the layer-1 bits of the following copy and
/// the input byte between the two, or `None` for the last copy, whose only
/// layer-3 target is the accept vertex.  Search mode (`search`) checks the
/// accept vertex at every position, so there it is always a target.
fn step(
    snfa: &Snfa,
    topo: &GadgetTopology,
    next: Option<(&[bool], u8)>,
    search: bool,
    out: &mut [bool],
) {
    let states = snfa.num_states();
    out.fill(false);
    let (l1, tail) = out.split_at_mut(states);
    let (l2, l3) = tail.split_at_mut(states);

    // Layer 3: a character edge into an allowed layer-1 vertex of the next
    // position, or the end vertex.
    if let Some((next1, byte)) = next {
        for (s, slot) in l3.iter_mut().enumerate() {
            *slot = snfa
                .char_out(s)
                .iter()
                .any(|&(class, t)| class.contains(byte) && next1[t]);
        }
    }
    if next.is_none() || search {
        l3[snfa.accept()] = true;
    }

    // Layer 2: E23 edges into layer 3, then E22 edges (reverse topological
    // order so that later opens are settled first).
    for (s, slot) in l2.iter_mut().enumerate() {
        *slot = topo.balanced_targets(s).iter().any(|&t| l3[t]);
    }
    for &t in topo.open_order().iter().rev() {
        if l2[t] {
            for &s in topo.open_in(t) {
                l2[s] = true;
            }
        }
    }

    // Layer 1: E12 edges into layer 2, then E11 edges in reverse
    // topological order.
    l1.copy_from_slice(l2);
    for &t in topo.close_order().iter().rev() {
        if l1[t] {
            for &s in topo.close_in(t) {
                l1[s] = true;
            }
        }
    }
}

/// The interned sets and (partially filled) transition rows of one reverse
/// automaton.  Checked out of a [`CoReach`] pool for one backward pass, so
/// the lock is never held during a sweep.
#[derive(Debug, Default)]
struct SetCache {
    /// Set → id.
    ids: HashMap<Box<[bool]>, u32>,
    /// Id → set, flat: set `id` is `sets[id * stride..][..stride]`.
    sets: Vec<bool>,
    /// Transitions: `trans[id * classes + class]`, [`UNKNOWN`] until
    /// computed.
    trans: Vec<u32>,
    /// Id of the last copy's set (the same for every line), once interned.
    end: Option<u32>,
}

impl SetCache {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.sets.clear();
        self.trans.clear();
        self.end = None;
    }

    fn intern(&mut self, set: &[bool], classes: usize) -> u32 {
        if let Some(&id) = self.ids.get(set) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(set.into(), id);
        self.sets.extend_from_slice(set);
        self.trans.resize(self.trans.len() + classes, UNKNOWN);
        id
    }
}

/// The memoized reverse co-reachability automaton of one SNFA.  Clones
/// start with empty cache pools.
#[derive(Clone, Debug)]
pub(crate) struct CoReach {
    classes: ByteClasses,
    /// One byte of each class, the byte [`step`] runs on.
    representative: Vec<u8>,
    /// Sets a cache may hold at the start of a line before it is cleared.
    max_sets: usize,
    anchored: ScratchPool<SetCache>,
    search: ScratchPool<SetCache>,
}

impl CoReach {
    /// The reverse automaton of `snfa` over the byte classes `classes`,
    /// which must not split any of its character guards.  The skeleton's
    /// lazy DFA already computed them: stripping refinements keeps every
    /// character class, so `skel(r)` and `r` have the same guards.
    pub(crate) fn new(snfa: &Snfa, classes: ByteClasses) -> Self {
        let mut representative = vec![0u8; classes.len()];
        for b in (0..=255u8).rev() {
            representative[classes.class(b)] = b;
        }
        debug_assert!(
            snfa.states()
                .all(|s| snfa.char_out(s).iter().all(|(guard, _)| {
                    (0..=255u8).all(|b| {
                        guard.contains(b) == guard.contains(representative[classes.class(b)])
                    })
                })),
            "byte classes split a character guard"
        );
        CoReach {
            classes,
            representative,
            max_sets: MAX_CACHED_SETS,
            anchored: ScratchPool::new(),
            search: ScratchPool::new(),
        }
    }

    /// Fills `bits` with the co-reachability of every vertex of `input`'s
    /// query graph, `((pos - 1) * 3 + (layer - 1)) * |S| + state`, in
    /// anchored or search mode.  Bit for bit what a direct backward sweep
    /// of [`step`] over the input's bytes computes.
    pub(crate) fn fill(
        &self,
        snfa: &Snfa,
        topo: &GadgetTopology,
        input: &[u8],
        search: bool,
        bits: &mut Vec<bool>,
    ) {
        let n = input.len();
        let states = snfa.num_states();
        let stride = 3 * states;
        let classes = self.classes.len();
        // Every position is overwritten below, so stale contents may stay.
        bits.resize(stride * (n + 1), false);

        let pool = if search { &self.search } else { &self.anchored };
        let mut cache = pool.take();
        if cache.len() > self.max_sets {
            cache.clear();
        }

        let last = &mut bits[n * stride..];
        let mut current = match cache.end {
            Some(id) => {
                last.copy_from_slice(&cache.sets[id as usize * stride..][..stride]);
                id
            }
            None => {
                step(snfa, topo, None, search, last);
                let id = cache.intern(last, classes);
                cache.end = Some(id);
                id
            }
        };
        for pos in (1..=n).rev() {
            let class = self.classes.class(input[pos - 1]);
            let (before, after) = bits.split_at_mut(pos * stride);
            let out = &mut before[(pos - 1) * stride..];
            let slot = current as usize * classes + class;
            current = match cache.trans[slot] {
                UNKNOWN => {
                    let next = (&after[..states], self.representative[class]);
                    step(snfa, topo, Some(next), search, out);
                    let id = cache.intern(out, classes);
                    cache.trans[slot] = id;
                    id
                }
                id => {
                    out.copy_from_slice(&cache.sets[id as usize * stride..][..stride]);
                    id
                }
            };
        }
        pool.put(cache);
    }
}

#[cfg(test)]
impl CoReach {
    /// The same automaton with a different cache bound.
    pub(crate) fn with_max_sets(mut self, max_sets: usize) -> Self {
        self.max_sets = max_sets;
        self
    }

    /// Sets held by each pooled cache of one mode.
    pub(crate) fn cached_sets(&self, search: bool) -> Vec<usize> {
        let pool = if search { &self.search } else { &self.anchored };
        pool.map(SetCache::len)
    }
}

/// The direct backward sweep: [`step`] at every position, on the input's
/// own bytes, with nothing memoized.  The reference the memoized automaton
/// is tested against.
#[cfg(test)]
pub(crate) fn sweep_direct(
    snfa: &Snfa,
    topo: &GadgetTopology,
    input: &[u8],
    search: bool,
) -> Vec<bool> {
    let n = input.len();
    let states = snfa.num_states();
    let stride = 3 * states;
    let mut bits = vec![false; stride * (n + 1)];
    for pos in (1..=n + 1).rev() {
        let (before, after) = bits.split_at_mut(pos * stride);
        let next = (pos <= n).then(|| (&after[..states], input[pos - 1]));
        step(snfa, topo, next, search, &mut before[(pos - 1) * stride..]);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use semre_automata::{compile, EpsClosure};
    use semre_oracle::PredicateOracle;
    use semre_syntax::{examples, CharClass, Semre};
    use semre_workloads::rng::StdRng as Rng;

    /// An SNFA, its topology (under an oracle whose `(q, ε)` answers vary
    /// with `seed`) and its memoized co-reachability automaton.
    fn build(r: &Semre, seed: u64) -> (Snfa, GadgetTopology, CoReach) {
        let snfa = compile(r);
        let oracle = PredicateOracle::new(move |query: &str, text: &[u8]| {
            (seed as usize + query.len() + text.len()) % 2 == 0
        });
        let topo = GadgetTopology::new(&snfa, &EpsClosure::compute(&snfa, &oracle));
        let coreach = CoReach::new(&snfa, ByteClasses::of(&snfa));
        (snfa, topo, coreach)
    }

    /// Fills through the memoized automaton, starting from a bitmap with
    /// stale contents to show that every bit is overwritten.
    fn memoized(
        snfa: &Snfa,
        topo: &GadgetTopology,
        coreach: &CoReach,
        input: &[u8],
        search: bool,
    ) -> Vec<bool> {
        let mut bits = vec![true; 7];
        coreach.fill(snfa, topo, input, search, &mut bits);
        bits
    }

    fn assert_agrees(
        snfa: &Snfa,
        topo: &GadgetTopology,
        coreach: &CoReach,
        input: &[u8],
        context: &str,
    ) {
        for search in [false, true] {
            assert!(
                memoized(snfa, topo, coreach, input, search)
                    == sweep_direct(snfa, topo, input, search),
                "{context}: search={search}, input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    /// Random SemREs over {a, b, c, 0xff} with queries from {q0, q1},
    /// nested refinements included.
    fn random_semre(rng: &mut Rng, depth: u32) -> Semre {
        if depth == 0 || rng.gen_range(0..3u32) == 0 {
            return match rng.gen_range(0..7u32) {
                0 => Semre::Eps,
                1 => Semre::byte(b'a'),
                2 => Semre::byte(b'b'),
                3 => Semre::byte(0xff),
                4 => Semre::class(CharClass::from_bytes([b'a', b'c'])),
                5 => Semre::class(CharClass::range(0x80, 0xff)),
                _ => Semre::any(),
            };
        }
        match rng.gen_range(0..4u32) {
            0 => Semre::concat(random_semre(rng, depth - 1), random_semre(rng, depth - 1)),
            1 => Semre::union(random_semre(rng, depth - 1), random_semre(rng, depth - 1)),
            2 => Semre::star(random_semre(rng, depth - 1)),
            _ => Semre::query(
                random_semre(rng, depth - 1),
                format!("q{}", rng.gen_range(0..2u32)),
            ),
        }
    }

    /// Random byte strings, empty and non-UTF-8 ones included.
    fn random_bytes(rng: &mut Rng, alphabet: &[u8], max_len: usize) -> Vec<u8> {
        let len = rng.gen_range(0..max_len + 1);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    #[test]
    fn memoized_bits_equal_the_direct_sweep_on_random_semres() {
        let mut rng = Rng::seed_from_u64(0xC0_4EAC);
        let alphabet = [b'a', b'b', b'c', b'\n', 0x00, 0x80, 0xff];
        let mut nested = 0;
        for case in 0..200 {
            let r = random_semre(&mut rng, 4);
            nested += r.has_nested_queries() as u32;
            let (snfa, topo, coreach) = build(&r, case);
            // Many lines through one automaton: later lines run warm.
            assert_agrees(&snfa, &topo, &coreach, b"", &format!("case {case}: {r}"));
            for _ in 0..12 {
                let input = random_bytes(&mut rng, &alphabet, 12);
                assert_agrees(&snfa, &topo, &coreach, &input, &format!("case {case}: {r}"));
            }
        }
        assert!(nested > 0, "the sweep must cover nested refinements");
    }

    #[test]
    fn memoized_bits_equal_the_direct_sweep_on_benchmark_semres() {
        let mut rng = Rng::seed_from_u64(0x7AB1E1);
        let tokens: &[&[u8]] = &[
            b"Subject: ",
            b"cheap ",
            b"viagra",
            b"http://",
            b"www.",
            b"example.com",
            b"user@mail.org",
            b"127.0.0.1",
            b"password = \"",
            b"\"",
            b"new File(\"",
            b"a.txt",
            b"int x1_y",
            b" ",
            b"\\n",
            b".",
            b"\xff\xfe",
            b"\x00",
            b"\xc3\xa9",
        ];
        for (name, r) in examples::table1_semres() {
            for semre in [r.clone(), Semre::padded(r)] {
                let (snfa, topo, coreach) = build(&semre, 0);
                for _ in 0..40 {
                    let count = rng.gen_range(0..12usize);
                    let mut input = Vec::new();
                    for _ in 0..count {
                        if rng.gen_bool(0.2) {
                            input.push(rng.gen_range(0..256u32) as u8);
                        } else {
                            input.extend_from_slice(tokens[rng.gen_range(0..tokens.len())]);
                        }
                    }
                    assert_agrees(&snfa, &topo, &coreach, &input, name);
                }
            }
        }
    }

    /// `[ab]{7} a [ab]*`: a position's set records which of the next seven
    /// bytes are `a`, so a random a/b line visits up to 2^7 distinct sets.
    fn many_sets_semre() -> Semre {
        let ab = || Semre::class(CharClass::from_bytes([b'a', b'b']));
        let mut r = Semre::concat(Semre::byte(b'a'), Semre::star(ab()));
        for _ in 0..7 {
            r = Semre::concat(ab(), r);
        }
        r
    }

    #[test]
    fn a_line_with_more_sets_than_the_cap_stays_exact_and_resets_the_next_line() {
        let (snfa, topo, coreach) = build(&many_sets_semre(), 0);
        let coreach = coreach.with_max_sets(8);
        let mut rng = Rng::seed_from_u64(42);
        let long = random_bytes(&mut rng, b"ab", 400);
        for search in [false, true] {
            let bits = memoized(&snfa, &topo, &coreach, &long, search);
            assert!(bits == sweep_direct(&snfa, &topo, &long, search));
            // The cap is checked only between lines: this one interned
            // every set it visited.
            let held = coreach.cached_sets(search);
            assert_eq!(held.len(), 1);
            assert!(held[0] > 8, "search={search}: {held:?}");

            // The next line starts by clearing the over-full cache.
            let short = b"abba";
            let bits = memoized(&snfa, &topo, &coreach, short, search);
            assert!(bits == sweep_direct(&snfa, &topo, short, search));
            let held = coreach.cached_sets(search);
            assert!(held[0] <= short.len() + 1, "search={search}: {held:?}");
        }
    }

    #[test]
    fn cache_resets_between_lines_keep_the_bits_exact() {
        let (snfa, topo, coreach) = build(&Semre::padded(many_sets_semre()), 3);
        // A cap of one clears the cache before nearly every line.
        let coreach = coreach.with_max_sets(1);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..100 {
            let input = random_bytes(&mut rng, b"abc", 30);
            assert_agrees(&snfa, &topo, &coreach, &input, "cap 1");
        }
    }

    #[test]
    fn anchored_and_search_caches_are_separate() {
        let (snfa, topo, coreach) = build(&examples::r_spam1(), 0);
        let line = b"Subject: cheap viagra now";
        memoized(&snfa, &topo, &coreach, line, false);
        assert_eq!(coreach.cached_sets(true), Vec::<usize>::new());
        memoized(&snfa, &topo, &coreach, line, true);
        assert_eq!(coreach.cached_sets(true).len(), 1);
        // A clone starts cold.
        assert!(coreach.clone().cached_sets(false).is_empty());
    }
}
