//! The equality-preferred (counting) matching engine.
//!
//! Second-generation implementation. The index is keyed by interned
//! [`Symbol`] pairs (one flat hash map, one cheap integer hash per probe)
//! instead of nested string maps, and the per-event counting state lives
//! in a caller-owned [`MatchScratch`] whose counter slots are
//! generation-stamped — no clearing and, after warm-up, no heap
//! allocation per event on the indexed-equality path. Profile removal is
//! proportional to the removed profile's own postings (back-pointers),
//! not to the size of the whole index.

use crate::intern::{FxHashMap, Symbol, SymbolTable};
use gsa_profile::{AttrValue, Literal, Predicate, ProfileAttr, ProfileExpr};
use gsa_store::Query;
use gsa_types::{DocSummary, Event, ProfileId};
use gsa_wire::probe::{DocProbe, EventProbe};
use gsa_wire::WireError;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fmt::Write as _;

/// Maximum number of indexed equality predicates per conjunction (bits of
/// the counting bitmask); further equality predicates are verified as
/// residuals, which is slower but exact.
const MAX_INDEXED: usize = 64;

/// One posting of the equality index: the conjunction holding the
/// predicate and the predicate's bit in that conjunction's mask.
#[derive(Debug, Clone, Copy)]
struct Posting {
    conj: u32,
    mask: u64,
}

/// A residual literal, pre-classified at insert time so the hot loop can
/// dispatch without re-inspecting the predicate shape.
#[derive(Debug)]
enum ResidualLit {
    /// `text ? (query)` — evaluated against the per-context token cache,
    /// so the excerpt is tokenized once per (event, document) context no
    /// matter how many profiles carry filter queries.
    TextQuery {
        query: Query,
        positive: bool,
    },
    /// Anything else, evaluated through the generic literal path.
    General(Literal),
}

impl ResidualLit {
    fn classify(lit: Literal) -> ResidualLit {
        match lit {
            Literal {
                predicate:
                    Predicate {
                        attr: ProfileAttr::Text,
                        value: AttrValue::Matches(query),
                    },
                positive,
            } => ResidualLit::TextQuery { query, positive },
            other => ResidualLit::General(other),
        }
    }

    fn matches(&self, event: &Event, doc: Option<&DocSummary>, tokens: &mut TokenCache) -> bool {
        match self {
            ResidualLit::TextQuery { query, positive } => {
                let holds = match doc {
                    Some(doc) => query.matches_tokens(tokens.get(&doc.excerpt)),
                    None => false,
                };
                holds == *positive
            }
            ResidualLit::General(lit) => lit.matches(event, doc),
        }
    }
}

/// Lazily tokenized excerpt of the current matching context. Built at
/// most once per (event, document) context, shared by every filter-query
/// residual verified in that context.
#[derive(Debug, Default)]
struct TokenCache {
    tokens: BTreeSet<String>,
    valid: bool,
}

impl TokenCache {
    fn reset(&mut self) {
        self.valid = false;
    }

    fn get(&mut self, excerpt: &str) -> &BTreeSet<String> {
        if !self.valid {
            self.tokens.clear();
            self.tokens.extend(gsa_store::tokenize(excerpt));
            self.valid = true;
        }
        &self.tokens
    }
}

#[derive(Debug)]
struct ConjEntry {
    profile: ProfileId,
    /// Dense per-profile slot, used to deduplicate matches across the
    /// event's documents without hashing profile ids.
    pslot: u32,
    /// Bitmask with one bit per indexed predicate; candidate when all set.
    required: u64,
    /// Literals verified only on candidates.
    residual: Vec<ResidualLit>,
    /// Back-pointers into the equality index, so removal only walks the
    /// posting lists this conjunction actually appears in.
    keys: Vec<(Symbol, Symbol)>,
}

#[derive(Debug)]
struct ProfileEntry {
    conjs: Vec<u32>,
    pslot: u32,
}

/// Statistics about the engine's index structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Registered profiles.
    pub profiles: usize,
    /// Live conjunctions.
    pub conjunctions: usize,
    /// Conjunctions reachable only by scanning (no indexed predicate).
    pub scan_conjunctions: usize,
    /// Distinct (attribute, value) index entries.
    pub index_entries: usize,
}

impl fmt::Display for FilterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} profiles, {} conjunctions ({} scan-only), {} index entries",
            self.profiles, self.conjunctions, self.scan_conjunctions, self.index_entries
        )
    }
}

/// Reusable per-thread matching state.
///
/// The counter slots are *generation-stamped*: advancing the generation
/// invalidates every slot in O(1), so nothing is cleared between events.
/// After the buffers have grown to the engine's size (one warm-up call),
/// [`FilterEngine::matches_into`] performs no heap allocation on the
/// indexed-equality path.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Monotonic stamp; bumped once per event and once per context.
    generation: u64,
    /// Per-conjunction `(generation, bits)` counter slots.
    counters: Vec<(u64, u64)>,
    /// Conjunction ids touched in the current context.
    touched: Vec<u32>,
    /// Per-profile-slot stamp of the event in which the profile matched.
    matched: Vec<u64>,
    /// Reusable buffer for the composed `host.name` collection key.
    collection_key: String,
    /// Per-context tokenized excerpt for filter-query residuals.
    tokens: TokenCache,
}

impl MatchScratch {
    /// Creates empty scratch state (buffers grow on first use).
    pub fn new() -> Self {
        MatchScratch::default()
    }

    fn ensure(&mut self, conjs: usize, pslots: usize) {
        if self.counters.len() < conjs {
            self.counters.resize(conjs, (0, 0));
        }
        if self.matched.len() < pslots {
            self.matched.resize(pslots, 0);
        }
    }
}

/// The equality-preferred filter engine.
///
/// See the [crate documentation](crate) for semantics and an example. For
/// high-throughput use, hold a [`MatchScratch`] and call
/// [`matches_into`](FilterEngine::matches_into); the convenience
/// [`matches`](FilterEngine::matches) allocates fresh state per call.
#[derive(Debug)]
pub struct FilterEngine {
    symbols: SymbolTable,
    attr_host: Symbol,
    attr_collection: Symbol,
    attr_kind: Symbol,
    attr_doc: Symbol,
    conjs: Vec<Option<ConjEntry>>,
    free_conjs: Vec<u32>,
    /// (attribute, value) -> postings; one flat map, one probe per pair.
    eq_index: FxHashMap<(Symbol, Symbol), Vec<Posting>>,
    /// Conjunctions with no indexed predicate, always candidates.
    scan: BTreeSet<u32>,
    by_profile: HashMap<ProfileId, ProfileEntry>,
    free_pslots: Vec<u32>,
    /// High-water mark of allocated profile slots (scratch sizing).
    pslot_high: u32,
}

impl Default for FilterEngine {
    fn default() -> Self {
        FilterEngine::new()
    }
}

impl FilterEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        let mut symbols = SymbolTable::new();
        let attr_host = symbols.intern(ProfileAttr::Host.name());
        let attr_collection = symbols.intern(ProfileAttr::Collection.name());
        let attr_kind = symbols.intern(ProfileAttr::Kind.name());
        let attr_doc = symbols.intern(ProfileAttr::DocId.name());
        FilterEngine {
            symbols,
            attr_host,
            attr_collection,
            attr_kind,
            attr_doc,
            conjs: Vec::new(),
            free_conjs: Vec::new(),
            eq_index: FxHashMap::default(),
            scan: BTreeSet::new(),
            by_profile: HashMap::new(),
            free_pslots: Vec::new(),
            pslot_high: 0,
        }
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.by_profile.len()
    }

    /// Returns `true` when no profiles are registered.
    pub fn is_empty(&self) -> bool {
        self.by_profile.is_empty()
    }

    /// Whether the profile id is registered.
    pub fn contains(&self, id: ProfileId) -> bool {
        self.by_profile.contains_key(&id)
    }

    /// Index structure statistics.
    pub fn stats(&self) -> FilterStats {
        FilterStats {
            profiles: self.by_profile.len(),
            conjunctions: self.conjs.iter().flatten().count(),
            scan_conjunctions: self.scan.len(),
            index_entries: self.eq_index.len(),
        }
    }

    /// Number of distinct interned strings (attribute names and values).
    pub fn interned_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The distinct `(attribute, value)` equality pairs currently held
    /// by the index, resolved back to strings and sorted — a read-only
    /// export for the interest-summary layer. Every positive equality
    /// predicate any indexed profile can match on appears here, so an
    /// attribute digest derived per profile expression may only name
    /// pairs this set contains (the oracle the digest tests check
    /// against). Postings for removed profiles are pruned eagerly, so
    /// the export never names a pair no live profile uses.
    pub fn equality_digest(&self) -> Vec<(&str, &str)> {
        let mut pairs: Vec<(&str, &str)> = self
            .eq_index
            .keys()
            .map(|&(attr, value)| (self.symbols.resolve(attr), self.symbols.resolve(value)))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[cfg(test)]
    fn conj_slot_capacity(&self) -> usize {
        self.conjs.len()
    }

    /// Registers a profile expression under `id`. Re-inserting an existing
    /// id replaces the previous expression.
    ///
    /// # Errors
    ///
    /// Returns [`gsa_profile::DnfError`] when the expression is too large
    /// to normalize.
    pub fn insert(
        &mut self,
        id: ProfileId,
        expr: &ProfileExpr,
    ) -> Result<(), gsa_profile::DnfError> {
        let dnf = gsa_profile::dnf::to_dnf(expr)?;
        self.remove(id);
        let pslot = self.free_pslots.pop().unwrap_or_else(|| {
            let slot = self.pslot_high;
            self.pslot_high = self
                .pslot_high
                .checked_add(1)
                .expect("profile slot overflow");
            slot
        });
        let mut conj_ids = Vec::with_capacity(dnf.len());
        for conj in dnf {
            let ci = match self.free_conjs.pop() {
                Some(ci) => ci,
                None => {
                    let ci = u32::try_from(self.conjs.len()).expect("conjunction id overflow");
                    self.conjs.push(None);
                    ci
                }
            };
            let mut required = 0u64;
            let mut residual = Vec::new();
            let mut keys = Vec::new();
            let mut bit = 0usize;
            for lit in conj.literals {
                if bit < MAX_INDEXED && Self::indexable(&lit) {
                    let mask = 1u64 << bit;
                    required |= mask;
                    let attr = self.symbols.intern(lit.predicate.attr.name());
                    let mut post = |symbols: &mut SymbolTable,
                                    eq_index: &mut FxHashMap<(Symbol, Symbol), Vec<Posting>>,
                                    value: &str| {
                        let key = (attr, symbols.intern(value));
                        eq_index
                            .entry(key)
                            .or_default()
                            .push(Posting { conj: ci, mask });
                        keys.push(key);
                    };
                    match &lit.predicate.value {
                        AttrValue::Equals(v) => post(&mut self.symbols, &mut self.eq_index, v),
                        AttrValue::OneOf(set) => {
                            for v in set {
                                post(&mut self.symbols, &mut self.eq_index, v);
                            }
                        }
                        _ => unreachable!("indexable() only admits Equals/OneOf"),
                    }
                    bit += 1;
                } else {
                    residual.push(ResidualLit::classify(lit));
                }
            }
            if required == 0 {
                self.scan.insert(ci);
            }
            self.conjs[ci as usize] = Some(ConjEntry {
                profile: id,
                pslot,
                required,
                residual,
                keys,
            });
            conj_ids.push(ci);
        }
        self.by_profile.insert(
            id,
            ProfileEntry {
                conjs: conj_ids,
                pslot,
            },
        );
        Ok(())
    }

    fn indexable(lit: &Literal) -> bool {
        if !lit.positive {
            return false;
        }
        // Equality on the excerpt text is never what a profile means and
        // text values are not enumerated as attribute pairs; verify such
        // predicates as residuals.
        if lit.predicate.attr == ProfileAttr::Text {
            return false;
        }
        matches!(
            lit.predicate.value,
            AttrValue::Equals(_) | AttrValue::OneOf(_)
        )
    }

    /// Removes a profile. Returns `true` when it was registered.
    ///
    /// Cost is proportional to the lengths of the posting lists the
    /// profile's conjunctions appear in (tracked by back-pointers), not
    /// to the size of the whole index.
    pub fn remove(&mut self, id: ProfileId) -> bool {
        let Some(entry) = self.by_profile.remove(&id) else {
            return false;
        };
        for ci in entry.conjs {
            let conj = self.conjs[ci as usize]
                .take()
                .expect("registered conjunction is live");
            self.scan.remove(&ci);
            for key in conj.keys {
                // Duplicate keys (e.g. the same value indexed under two
                // bits) are handled by the first visit; later visits see
                // an already-pruned or removed list.
                if let Some(postings) = self.eq_index.get_mut(&key) {
                    postings.retain(|p| p.conj != ci);
                    if postings.is_empty() {
                        self.eq_index.remove(&key);
                    }
                }
            }
            self.free_conjs.push(ci);
        }
        self.free_pslots.push(entry.pslot);
        true
    }

    #[inline]
    fn postings(&self, attr: Symbol, value: &str) -> Option<&[Posting]> {
        let value = self.symbols.lookup(value)?;
        self.eq_index.get(&(attr, value)).map(Vec::as_slice)
    }

    /// The profiles matching `event`, written to `out` in ascending id
    /// order. A profile matches when any of the event's documents — or
    /// the document-free context, for docless events — satisfies it.
    ///
    /// `out` is cleared first. With warm `scratch` buffers this performs
    /// no heap allocation on the indexed-equality path; only residual
    /// predicates (wildcards, filter queries, negations) may allocate.
    pub fn matches_into(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        out: &mut Vec<ProfileId>,
    ) {
        out.clear();
        scratch.ensure(self.conjs.len(), self.pslot_high as usize);
        scratch.generation += 1;
        let event_gen = scratch.generation;

        // Event-level keys are materialized (and hashed) once per event,
        // not once per document context. The composed `host.name`
        // collection key reuses the scratch buffer.
        let host = self.postings(self.attr_host, event.origin.host().as_str());
        scratch.collection_key.clear();
        let _ = write!(scratch.collection_key, "{}", event.origin);
        let collection = self.postings(self.attr_collection, &scratch.collection_key);
        let kind = self.postings(self.attr_kind, event.kind.as_str());
        let event_postings = [host, collection, kind];

        if event.docs.is_empty() {
            self.match_context(event, None, &event_postings, scratch, event_gen, out);
        } else {
            for doc in &event.docs {
                self.match_context(event, Some(doc), &event_postings, scratch, event_gen, out);
            }
        }
        out.sort_unstable();
    }

    /// The profiles matching `event` (in ascending id order).
    ///
    /// Convenience wrapper allocating fresh [`MatchScratch`] state; batch
    /// callers should hold their own scratch and use
    /// [`matches_into`](FilterEngine::matches_into).
    pub fn matches(&self, event: &Event) -> Vec<ProfileId> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.matches_into(event, &mut scratch, &mut out);
        out
    }

    /// Matches a batch of events with shared scratch state, returning one
    /// match set per event (each in ascending id order).
    pub fn matches_batch(&self, events: &[Event], scratch: &mut MatchScratch) -> Vec<Vec<ProfileId>> {
        events
            .iter()
            .map(|event| {
                let mut out = Vec::new();
                self.matches_into(event, scratch, &mut out);
                out
            })
            .collect()
    }

    fn match_context(
        &self,
        event: &Event,
        doc: Option<&DocSummary>,
        event_postings: &[Option<&[Posting]>; 3],
        scratch: &mut MatchScratch,
        event_gen: u64,
        out: &mut Vec<ProfileId>,
    ) {
        scratch.generation += 1;
        let gen = scratch.generation;
        scratch.touched.clear();
        scratch.tokens.reset();
        let MatchScratch {
            counters,
            touched,
            matched,
            tokens,
            ..
        } = scratch;

        // Phase 1: counting over the indexed equality predicates. A slot
        // stamped with an older generation is logically zero.
        let mut bump = |postings: &[Posting]| {
            for p in postings {
                let slot = &mut counters[p.conj as usize];
                if slot.0 == gen {
                    slot.1 |= p.mask;
                } else {
                    *slot = (gen, p.mask);
                    touched.push(p.conj);
                }
            }
        };
        for postings in event_postings.iter().flatten() {
            bump(postings);
        }
        if let Some(doc) = doc {
            if let Some(postings) = self.postings(self.attr_doc, doc.doc.as_str()) {
                bump(postings);
            }
            for (key, value) in doc.metadata.iter_flat() {
                let Some(attr) = self.symbols.lookup(key.as_str()) else {
                    continue;
                };
                let Some(val) = self.symbols.lookup(value) else {
                    continue;
                };
                if let Some(postings) = self.eq_index.get(&(attr, val)) {
                    bump(postings);
                }
            }
        }

        // Phase 2: verification of candidates. A profile that already
        // matched this event (stamped slot) is skipped entirely.
        let mut verify = |ci: u32, bits: u64| {
            let entry = self.conjs[ci as usize]
                .as_ref()
                .expect("indexed conjunction is live");
            if bits & entry.required != entry.required {
                return;
            }
            let mslot = &mut matched[entry.pslot as usize];
            if *mslot == event_gen {
                return;
            }
            if entry
                .residual
                .iter()
                .all(|r| r.matches(event, doc, tokens))
            {
                *mslot = event_gen;
                out.push(entry.profile);
            }
        };
        for &ci in touched.iter() {
            verify(ci, counters[ci as usize].1);
        }
        for &ci in &self.scan {
            verify(ci, !0);
        }
    }

    /// Conservative zero-materialisation pre-filter: could any profile
    /// match the event behind `probe`?
    ///
    /// Runs exactly the counting phase of
    /// [`matches_into`](FilterEngine::matches_into) against the borrowed
    /// attribute slices of an [`EventProbe`] — no `Event`, no metadata
    /// record, no interning (values are looked up read-only; a value
    /// never seen by any profile cannot be in the index). Residual
    /// predicates are *not* verified: a conjunction whose indexed mask is
    /// complete counts as a hit, and any scan-only conjunction (wildcards,
    /// filter queries, pure negations) makes every event a hit. `false`
    /// therefore proves `matches_into` would return nothing, while `true`
    /// only means the caller must materialise the event and run the full
    /// match.
    ///
    /// With warm `scratch` buffers this performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates [`WireError`] from walking the encoded documents;
    /// callers treat an error like `true` (decode and let the ordinary
    /// path report the problem).
    pub fn probe_matches(
        &self,
        probe: &mut EventProbe<'_>,
        scratch: &mut MatchScratch,
    ) -> Result<bool, WireError> {
        if !self.scan.is_empty() {
            return Ok(true);
        }
        if self.eq_index.is_empty() {
            return Ok(false);
        }
        scratch.ensure(self.conjs.len(), self.pslot_high as usize);

        let host = self.postings(self.attr_host, probe.origin_host());
        scratch.collection_key.clear();
        let _ = write!(
            scratch.collection_key,
            "{}.{}",
            probe.origin_host(),
            probe.origin_name()
        );
        let collection = self.postings(self.attr_collection, &scratch.collection_key);
        let kind = self.postings(self.attr_kind, probe.kind().as_str());
        let event_postings = [host, collection, kind];

        if probe.remaining_docs() == 0 {
            return Ok(self.probe_context(&event_postings, None, scratch));
        }
        while let Some(doc) = probe.next_doc()? {
            if self.probe_context(&event_postings, Some(&doc), scratch) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One counting context of [`probe_matches`]: returns `true` when
    /// any conjunction's indexed mask is completed by this context.
    fn probe_context(
        &self,
        event_postings: &[Option<&[Posting]>; 3],
        doc: Option<&DocProbe<'_>>,
        scratch: &mut MatchScratch,
    ) -> bool {
        scratch.generation += 1;
        let gen = scratch.generation;
        scratch.touched.clear();
        let MatchScratch {
            counters, touched, ..
        } = scratch;

        let mut bump = |postings: &[Posting]| {
            for p in postings {
                let slot = &mut counters[p.conj as usize];
                if slot.0 == gen {
                    slot.1 |= p.mask;
                } else {
                    *slot = (gen, p.mask);
                    touched.push(p.conj);
                }
            }
        };
        for postings in event_postings.iter().flatten() {
            bump(postings);
        }
        if let Some(doc) = doc {
            if let Some(postings) = self.postings(self.attr_doc, doc.id()) {
                bump(postings);
            }
            for (key, value) in doc.metadata() {
                let Some(attr) = self.symbols.lookup(key) else {
                    continue;
                };
                let Some(val) = self.symbols.lookup(value) else {
                    continue;
                };
                if let Some(postings) = self.eq_index.get(&(attr, val)) {
                    bump(postings);
                }
            }
        }

        touched.iter().any(|&ci| {
            let entry = self.conjs[ci as usize]
                .as_ref()
                .expect("indexed conjunction is live");
            counters[ci as usize].1 & entry.required == entry.required
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{keys, CollectionId, EventId, EventKind, MetadataRecord, SimTime};

    fn pid(raw: u64) -> ProfileId {
        ProfileId::from_raw(raw)
    }

    fn event(host: &str, coll: &str, subject: &str, text: &str) -> Event {
        let md: MetadataRecord = [(keys::SUBJECT, subject)].into_iter().collect();
        Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, coll),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d1").with_metadata(md).with_excerpt(text)])
    }

    fn engine_with(profiles: &[(u64, &str)]) -> FilterEngine {
        let mut e = FilterEngine::new();
        for (id, text) in profiles {
            e.insert(pid(*id), &parse_profile(text).unwrap()).unwrap();
        }
        e
    }

    #[test]
    fn equality_profiles_are_indexed_and_match() {
        let e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"host = "Paris""#),
            (3, r#"dc.Subject = "dl""#),
        ]);
        assert_eq!(e.stats().scan_conjunctions, 0);
        let matched = e.matches(&event("London", "E", "dl", ""));
        assert_eq!(matched, vec![pid(1), pid(3)]);
    }

    #[test]
    fn conjunction_requires_all_indexed_predicates() {
        let e = engine_with(&[(1, r#"host = "London" AND dc.Subject = "dl""#)]);
        assert!(e.matches(&event("London", "E", "dl", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "other", "")).is_empty());
        assert!(e.matches(&event("Paris", "E", "dl", "")).is_empty());
    }

    #[test]
    fn residual_predicates_are_verified() {
        let e = engine_with(&[(1, r#"host = "London" AND text ? (digital)"#)]);
        assert!(!e.matches(&event("London", "E", "x", "analog stuff")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "digital stuff")).contains(&pid(1)));
    }

    #[test]
    fn scan_only_profiles_still_match() {
        let e = engine_with(&[(1, r#"text ~ "*digital*""#)]);
        assert_eq!(e.stats().scan_conjunctions, 1);
        assert!(e.matches(&event("Anywhere", "C", "x", "the digital age")).contains(&pid(1)));
    }

    #[test]
    fn negated_equality_is_residual() {
        let e = engine_with(&[(1, r#"NOT host = "London""#)]);
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
    }

    #[test]
    fn id_list_is_indexed_per_value() {
        let e = engine_with(&[(1, r#"host in ["London", "Paris"]"#)]);
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "")).contains(&pid(1)));
        assert!(e.matches(&event("Berlin", "E", "x", "")).is_empty());
    }

    #[test]
    fn disjunction_creates_multiple_conjunctions() {
        let e = engine_with(&[(1, r#"host = "London" OR host = "Paris""#)]);
        assert_eq!(e.stats().conjunctions, 2);
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        // Profile reported once even when both branches match.
        let e = engine_with(&[(1, r#"host = "London" OR kind = "documents-added""#)]);
        assert_eq!(e.matches(&event("London", "E", "x", "")), vec![pid(1)]);
    }

    #[test]
    fn equality_digest_exports_live_pairs_the_summary_layer_respects() {
        let mut e = engine_with(&[
            (1, r#"kind = "documents-added" AND host = "London""#),
            (2, r#"dc.Language = "mi""#),
        ]);
        let digest = e.equality_digest();
        for pair in [
            ("kind", "documents-added"),
            ("host", "London"),
            ("dc.Language", "mi"),
        ] {
            assert!(digest.contains(&pair), "index lacks {pair:?}");
        }
        // The announcement-layer attribute digest may only name pairs
        // this index holds: a summary claiming an interest the matcher
        // cannot satisfy would make upstream pruning unsound.
        for text in [
            r#"kind = "documents-added" AND host = "London""#,
            r#"dc.Language = "mi""#,
        ] {
            let summary = gsa_profile::interests_of(&parse_profile(text).unwrap());
            for (key, values) in summary.attrs() {
                let attr = key.strip_prefix(gsa_wire::ATTR_META_PREFIX).unwrap_or(key);
                for value in values {
                    assert!(
                        digest.contains(&(attr, value.as_str())),
                        "summary names unindexed pair {attr}={value}"
                    );
                }
            }
        }
        // Removal prunes the export along with the postings.
        assert!(e.remove(pid(2)));
        let digest = e.equality_digest();
        assert!(!digest.contains(&("dc.Language", "mi")));
        assert!(digest.contains(&("host", "London")));
    }

    #[test]
    fn remove_profile() {
        let mut e = engine_with(&[(1, r#"host = "London""#), (2, r#"host = "London""#)]);
        assert!(e.remove(pid(1)));
        assert!(!e.remove(pid(1)));
        assert!(!e.contains(pid(1)));
        assert_eq!(e.matches(&event("London", "E", "x", "")), vec![pid(2)]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn remove_shrinks_index_entries() {
        // Two profiles share the "host=London" entry; a third owns its own
        // entries. Removing the third must drop exactly its entries, and
        // removing one sharer must keep the shared entry alive.
        let mut e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"host = "London" AND dc.Subject = "dl""#),
            (3, r#"kind = "documents-added" AND doc in ["d1", "d2"]"#),
        ]);
        // Entries: (host,London), (dc.Subject,dl), (kind,documents-added),
        // (doc,d1), (doc,d2).
        assert_eq!(e.stats().index_entries, 5);
        assert!(e.remove(pid(3)));
        assert_eq!(e.stats().index_entries, 2);
        assert!(e.remove(pid(2)));
        assert_eq!(e.stats().index_entries, 1);
        assert_eq!(e.matches(&event("London", "E", "dl", "")), vec![pid(1)]);
        assert!(e.remove(pid(1)));
        assert_eq!(e.stats().index_entries, 0);
        assert_eq!(e.stats().conjunctions, 0);
    }

    #[test]
    fn removed_slots_are_reused() {
        let mut e = engine_with(&[(1, r#"host = "A" OR host = "B""#)]);
        let capacity = e.conj_slot_capacity();
        assert!(e.remove(pid(1)));
        e.insert(pid(2), &parse_profile(r#"host = "C" OR host = "D""#).unwrap())
            .unwrap();
        assert_eq!(e.conj_slot_capacity(), capacity);
        assert_eq!(e.matches(&event("C", "E", "x", "")), vec![pid(2)]);
    }

    #[test]
    fn reinsert_replaces() {
        let mut e = engine_with(&[(1, r#"host = "London""#)]);
        e.insert(pid(1), &parse_profile(r#"host = "Paris""#).unwrap())
            .unwrap();
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn docless_event_matches_event_level() {
        let e = engine_with(&[(1, r#"collection = "London.E""#), (2, r#"doc = "d1""#)]);
        let deleted = Event::new(
            EventId::new("London", 9),
            CollectionId::new("London", "E"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        );
        assert_eq!(e.matches(&deleted), vec![pid(1)]);
    }

    #[test]
    fn multiple_docs_any_semantics() {
        let e = engine_with(&[(1, r#"dc.Subject = "b""#)]);
        let md_a: MetadataRecord = [(keys::SUBJECT, "a")].into_iter().collect();
        let md_b: MetadataRecord = [(keys::SUBJECT, "b")].into_iter().collect();
        let ev = Event::new(
            EventId::new("h", 1),
            CollectionId::new("h", "c"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![
            DocSummary::new("d1").with_metadata(md_a),
            DocSummary::new("d2").with_metadata(md_b),
        ]);
        assert_eq!(e.matches(&ev), vec![pid(1)]);
    }

    #[test]
    fn scratch_is_reusable_across_engines_and_events() {
        let e1 = engine_with(&[(1, r#"host = "London""#)]);
        let e2 = engine_with(&[(7, r#"host = "Paris""#), (8, r#"host = "London""#)]);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        e1.matches_into(&event("London", "E", "x", ""), &mut scratch, &mut out);
        assert_eq!(out, vec![pid(1)]);
        e2.matches_into(&event("Paris", "E", "x", ""), &mut scratch, &mut out);
        assert_eq!(out, vec![pid(7)]);
        e2.matches_into(&event("Berlin", "E", "x", ""), &mut scratch, &mut out);
        assert!(out.is_empty());
        e2.matches_into(&event("London", "E", "x", ""), &mut scratch, &mut out);
        assert_eq!(out, vec![pid(8)]);
    }

    #[test]
    fn matches_batch_agrees_with_single_calls() {
        let e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"dc.Subject = "dl""#),
        ]);
        let events = vec![
            event("London", "E", "dl", ""),
            event("Paris", "E", "dl", ""),
            event("Berlin", "E", "x", ""),
        ];
        let mut scratch = MatchScratch::new();
        let batched = e.matches_batch(&events, &mut scratch);
        let singles: Vec<_> = events.iter().map(|ev| e.matches(ev)).collect();
        assert_eq!(batched, singles);
        assert_eq!(batched[0], vec![pid(1), pid(2)]);
    }

    #[test]
    fn stats_display() {
        let e = engine_with(&[(1, r#"host = "London""#)]);
        let s = e.stats().to_string();
        assert!(s.contains("1 profiles"));
        assert!(e.interned_symbols() >= 5); // 4 attribute names + "London"
    }

    #[test]
    fn empty_engine_matches_nothing() {
        let e = FilterEngine::new();
        assert!(e.is_empty());
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
    }

    /// Opens a probe over the event's frozen binary payload encoding.
    fn probed(event: &Event, f: impl FnOnce(&mut gsa_wire::EventProbe<'_>) -> bool) -> bool {
        let bytes =
            gsa_wire::binary::payload_bytes_from_xml(&gsa_wire::codec::event_to_xml(event));
        let mut probe = gsa_wire::EventProbe::from_payload(&bytes).unwrap().unwrap();
        f(&mut probe)
    }

    fn probe_hit(e: &FilterEngine, ev: &Event) -> bool {
        probed(ev, |probe| {
            e.probe_matches(probe, &mut MatchScratch::new()).unwrap()
        })
    }

    #[test]
    fn probe_rejects_what_cannot_match_and_passes_what_can() {
        let e = engine_with(&[
            (1, r#"host = "London" AND dc.Subject = "dl""#),
            (2, r#"doc = "d1" AND kind = "collection-rebuilt""#),
        ]);
        assert!(probe_hit(&e, &event("London", "E", "dl", "")));
        assert!(!probe_hit(&e, &event("London", "E", "other", "")), "mask incomplete");
        assert!(!probe_hit(&e, &event("Paris", "E", "dl", "")), "wrong host");
        // d1 present but kind differs: no conjunction completes.
        assert!(!probe_hit(&e, &event("Berlin", "E", "x", "")));
    }

    #[test]
    fn probe_is_conservative_for_scan_profiles() {
        // Wildcards, filter queries and pure negations are scan-only:
        // every event passes the probe and is verified after decode.
        for text in [r#"text ~ "*digital*""#, r#"text ? (digital)"#, r#"NOT host = "X""#] {
            let e = engine_with(&[(1, text)]);
            assert!(probe_hit(&e, &event("Anywhere", "C", "x", "nope")), "{text}");
        }
    }

    #[test]
    fn probe_passes_candidates_with_failing_residuals() {
        // Indexed mask completes, residual fails: the probe must still
        // pass the event through (it never verifies residuals).
        let e = engine_with(&[(1, r#"host = "London" AND text ? (digital)"#)]);
        assert!(probe_hit(&e, &event("London", "E", "x", "analog stuff")));
        assert!(!probe_hit(&e, &event("Paris", "E", "x", "digital stuff")));
    }

    #[test]
    fn probe_agrees_with_matches_on_docless_events() {
        let e = engine_with(&[(1, r#"collection = "London.E""#), (2, r#"doc = "d1""#)]);
        let deleted = Event::new(
            EventId::new("London", 9),
            CollectionId::new("London", "E"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        );
        assert!(probe_hit(&e, &deleted));
        let other = Event::new(
            EventId::new("Paris", 9),
            CollectionId::new("Paris", "E"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        );
        assert!(!probe_hit(&e, &other));
    }

    #[test]
    fn probe_empty_engine_rejects_everything() {
        let e = FilterEngine::new();
        assert!(!probe_hit(&e, &event("London", "E", "dl", "")));
    }

    #[test]
    fn probe_never_false_negative_across_profile_shapes() {
        // For every profile shape and a spread of events: probe=false
        // must imply matches=empty.
        let e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"dc.Subject in ["dl", "pubsub"]"#),
            (3, r#"collection = "Paris.E" AND kind = "documents-added""#),
            (4, r#"doc = "d1" AND dc.Subject = "dl""#),
        ]);
        for ev in [
            event("London", "E", "dl", "t"),
            event("Paris", "E", "pubsub", "t"),
            event("Berlin", "C", "none", "t"),
            event("Paris", "E", "x", "t"),
        ] {
            let full = e.matches(&ev);
            let hit = probe_hit(&e, &ev);
            assert!(hit || full.is_empty(), "probe false negative on {ev:?}");
        }
    }
}
