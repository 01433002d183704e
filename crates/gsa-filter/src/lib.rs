//! Local event filtering.
//!
//! Each Greenstone server filters incoming events against its locally
//! stored profiles (Section 4.2) using "a variant of the
//! equality-preferred algorithm" (Section 5, citing Fabret et al.). This
//! crate provides:
//!
//! * [`FilterEngine`] — the equality-preferred engine: profiles are
//!   normalized to DNF, their positive equality (and ID-list) predicates
//!   are hash-indexed per attribute, and matching uses the counting
//!   algorithm (a conjunction becomes a candidate only once *all* its
//!   indexed predicates were satisfied by the event's attribute values);
//!   residual predicates (wildcards, retrieval queries, negations) are
//!   verified only on candidates. The index is keyed by interned
//!   [`Symbol`](intern::Symbol) pairs and the per-event counting state
//!   lives in a reusable [`MatchScratch`], so steady-state matching does
//!   not allocate on the indexed-equality path.
//! * [`NaiveFilter`] — the linear-scan oracle: every profile is evaluated
//!   against every event; used by experiment E3 to show the shape of the
//!   equality-preferred speedup.
//!
//! Both agree exactly on semantics (a property test in this crate checks
//! them against each other on randomized profiles and events).
//!
//! # Examples
//!
//! ```
//! use gsa_filter::{FilterEngine, MatchScratch};
//! use gsa_profile::parse_profile;
//! use gsa_types::{CollectionId, DocSummary, Event, EventId, EventKind, ProfileId, SimTime};
//!
//! let mut engine = FilterEngine::new();
//! engine.insert(
//!     ProfileId::from_raw(1),
//!     &parse_profile(r#"host = "London" AND text ? (digital)"#).unwrap(),
//! )?;
//! let event = Event::new(
//!     EventId::new("London", 1),
//!     CollectionId::new("London", "E"),
//!     EventKind::DocumentsAdded,
//!     SimTime::ZERO,
//! )
//! .with_docs(vec![DocSummary::new("d").with_excerpt("digital library")]);
//! assert_eq!(engine.matches(&event), vec![ProfileId::from_raw(1)]);
//!
//! // Batch path: reusable scratch state, no per-event allocation on the
//! // indexed-equality path.
//! let mut scratch = MatchScratch::new();
//! let mut matched = Vec::new();
//! engine.matches_into(&event, &mut scratch, &mut matched);
//! assert_eq!(matched, vec![ProfileId::from_raw(1)]);
//! # Ok::<(), gsa_profile::DnfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod intern;
pub mod naive;

pub use engine::{FilterEngine, FilterStats, MatchScratch};
pub use naive::NaiveFilter;

#[cfg(test)]
mod equivalence_tests;
