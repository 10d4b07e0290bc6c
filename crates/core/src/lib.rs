//! Membership testing for semantic regular expressions.
//!
//! This crate implements the core contribution of *Membership Testing for
//! Semantic Regular Expressions* (PLDI 2025): a two-pass, NFA-based
//! algorithm that decides `w ∈ ⟦r⟧` for a SemRE `r` while carefully bounding
//! the number of oracle queries.  The first pass recognises the syntactic
//! structure required by the classical skeleton of `r` and assembles a
//! *query graph* summarising all outstanding `(query, substring)` pairs; the
//! second pass evaluates the graph by dynamic programming, discharging
//! oracle queries on demand (Section 3 of the paper).
//!
//! Two matchers are provided:
//!
//! * [`Matcher`] — the query-graph algorithm (`O(|r|²|w|²)` for the common
//!   non-nested case, `O(|r|²|w|² + |r||w|³)` in general, `O(|r||w|²)`
//!   oracle calls);
//! * [`DpMatcher`] — the memoized dynamic-programming baseline used by the
//!   SMORE system (`O(|r||w|³)`), against which the paper evaluates.
//!
//! Both matchers route oracle questions through the batched, deduplicating
//! query plane of `semre-oracle` by default (see `DESIGN.md`): questions
//! are collected per input position, deduplicated by their `(query, start,
//! end)` query-graph identity, and shipped to the backend in batches — the
//! same logical requests as the per-call plane, strictly fewer backend
//! keys.  Share a `BatchSession` across lines ([`Matcher::run_in_session`])
//! to extend the deduplication across a whole grep chunk.
//!
//! # Example
//!
//! ```
//! use semre_core::{DpMatcher, Matcher};
//! use semre_oracle::SimLlmOracle;
//! use semre_syntax::parse;
//!
//! // Example 2.8 of the paper: flag spam subjects advertising medicines.
//! let r = parse(r"Subject: .*(?<Medicine name>: .+).*").unwrap();
//! let oracle = SimLlmOracle::new();
//!
//! let snfa_matcher = Matcher::new(r.clone(), &oracle);
//! let baseline = DpMatcher::new(r, &oracle);
//!
//! let line = b"Subject: discount tramadol inside";
//! assert!(snfa_matcher.is_match(line));
//! assert_eq!(snfa_matcher.is_match(line), baseline.is_match(line));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod coreach;
mod eval;
mod graph;
mod matcher;
mod topology;

pub use baseline::{BaselineReport, DpMatcher};
pub use eval::{EvalOptions, EvalReport, SearchKind};
pub use graph::{Layer, QueryGraph, VertexId, VertexLabel};
pub use matcher::{Matcher, MatcherConfig, SuspendedMatch};
pub use topology::GadgetTopology;
