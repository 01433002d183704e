//! The per-server subscription manager.
//!
//! Profiles live only on the server the client registered them with
//! (research problems 3 and 4: one access point per user, and no profile
//! on a server that might become unreachable). Cancellation is therefore
//! always a local operation, which is what rules out dangling *user*
//! profiles by construction.

use gsa_filter::{FilterEngine, MatchScratch};
use gsa_profile::{DnfError, Profile, ProfileExpr};
use gsa_types::{ClientId, DocId, Event, ProfileId, SimTime};
use gsa_wire::{InterestSummary, SummaryTally};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A notification queued for a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The matching profile.
    pub profile: ProfileId,
    /// The owning client.
    pub client: ClientId,
    /// The matched event (shared — one rebuild can notify many
    /// profiles, so notifications hold the event by reference count).
    pub event: Arc<Event>,
    /// The documents within the event that satisfied the profile (empty
    /// for event-level matches on docless events).
    pub matched_docs: Vec<DocId>,
    /// When the notification was produced (local server time).
    pub at: SimTime,
}

impl fmt::Display for Notification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} for {}: {} ({} docs)",
            self.at,
            self.profile,
            self.client,
            self.event,
            self.matched_docs.len()
        )
    }
}

/// Stores one server's client profiles and filters events against them
/// with the equality-preferred engine.
#[derive(Debug, Default)]
pub struct SubscriptionManager {
    engine: FilterEngine,
    profiles: HashMap<ProfileId, Profile>,
    next_profile: u64,
    mailboxes: HashMap<ClientId, Vec<Notification>>,
    /// Reusable matching state; after warm-up the engine's indexed path
    /// runs allocation-free across the event stream.
    scratch: MatchScratch,
    matched: Vec<ProfileId>,
    /// The counted union of every stored profile's interest digest.
    /// Built on the first [`interest_summary`](Self::interest_summary)
    /// request and kept current by every profile change from then on;
    /// a server that never announces summaries never pays for it.
    tally: Option<SummaryTally>,
}

impl SubscriptionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SubscriptionManager::default()
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when no profiles are stored.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Registers a profile for `client`.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to index.
    pub fn subscribe(
        &mut self,
        client: ClientId,
        expr: ProfileExpr,
    ) -> Result<ProfileId, DnfError> {
        let id = ProfileId::from_raw(self.next_profile);
        self.engine.insert(id, &expr)?;
        self.next_profile += 1;
        if let Some(tally) = &mut self.tally {
            tally.add(&gsa_profile::interests_of(&expr));
        }
        self.profiles.insert(id, Profile::new(id, client, expr));
        Ok(id)
    }

    /// Re-registers a recovered profile under its original id (the
    /// durable-state replay path). Unlike [`subscribe`](Self::subscribe)
    /// the id is the caller's: recovery must reproduce the pre-crash id
    /// space so persisted unsubscribe records and client-held handles
    /// keep meaning the same profile. Bumps the id allocator past `id`.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError`] when the expression is too large to index
    /// (cannot happen for expressions that indexed before the crash).
    pub fn restore(
        &mut self,
        id: ProfileId,
        client: ClientId,
        expr: ProfileExpr,
    ) -> Result<(), DnfError> {
        self.engine.insert(id, &expr)?;
        let replaced = self.profiles.insert(id, Profile::new(id, client, expr));
        if let Some(tally) = &mut self.tally {
            // In before out: restoring a profile over an identical one
            // then moves nothing visible.
            tally.add(&gsa_profile::interests_of(self.profiles[&id].expr()));
            if let Some(old) = replaced {
                tally.remove(&gsa_profile::interests_of(old.expr()));
            }
        }
        self.set_next_profile_at_least(id.as_u64() + 1);
        Ok(())
    }

    /// Ensures the next assigned profile id is at least `n` (recovery
    /// resumes the allocator from the persisted high-water mark, which
    /// can sit above every live profile when the newest ones were
    /// unsubscribed before the crash).
    pub fn set_next_profile_at_least(&mut self, n: u64) {
        self.next_profile = self.next_profile.max(n);
    }

    /// Models a server crash: every profile, the filter index and the
    /// id allocator vanish — exactly what an in-memory server loses.
    /// Client mailboxes survive deliberately: they model the *client
    /// side* inbox of already-produced notifications, not server state.
    pub fn wipe_for_crash(&mut self) {
        self.engine = FilterEngine::new();
        self.profiles.clear();
        if let Some(tally) = &mut self.tally {
            tally.clear();
        }
        self.next_profile = 0;
    }

    /// Cancels a profile. Local and immediate (research problem 4).
    /// Returns `true` when it existed.
    pub fn unsubscribe(&mut self, profile: ProfileId) -> bool {
        self.engine.remove(profile);
        let Some(removed) = self.profiles.remove(&profile) else {
            return false;
        };
        if let Some(tally) = &mut self.tally {
            // Recomputed from the stored expression, not cached: a
            // digest per profile would cost memory on every server to
            // save one DNF pass per cancellation.
            tally.remove(&gsa_profile::interests_of(removed.expr()));
        }
        true
    }

    /// Cancels all profiles of a client, returning how many were removed.
    pub fn unsubscribe_client(&mut self, client: ClientId) -> usize {
        let ids: Vec<ProfileId> = self
            .profiles
            .values()
            .filter(|p| p.owner() == client)
            .map(Profile::id)
            .collect();
        for id in &ids {
            self.unsubscribe(*id);
        }
        ids.len()
    }

    /// Borrows a profile.
    pub fn profile(&self, id: ProfileId) -> Option<&Profile> {
        self.profiles.get(&id)
    }

    /// Iterates over all profiles (arbitrary order).
    pub fn profiles(&self) -> impl Iterator<Item = &Profile> {
        self.profiles.values()
    }

    /// The conservative interest digest of every stored profile — the
    /// union of [`gsa_profile::interests_of`] over all expressions,
    /// announced to the GDS flood-pruning layer. Empty when no profiles
    /// are stored; wildcard as soon as any profile cannot be anchored to
    /// exact origins.
    ///
    /// The first call counts every stored profile into a
    /// [`SummaryTally`] (O(profiles), once); from then on subscribe,
    /// restore and unsubscribe keep it current at O(one digest) each,
    /// and this call only materialises the tally: O(anchors + digest
    /// keys), independent of the profile count.
    pub fn interest_summary(&mut self) -> InterestSummary {
        self.tally().summary()
    }

    /// A counter that moves whenever
    /// [`interest_summary`](Self::interest_summary) may have changed;
    /// equal readings imply equal summaries. Builds the tally like
    /// `interest_summary` does.
    pub(crate) fn interest_version(&mut self) -> u64 {
        self.tally().version()
    }

    /// The interest tally, built from the stored profiles on first use.
    fn tally(&mut self) -> &SummaryTally {
        let profiles = &self.profiles;
        self.tally.get_or_insert_with(|| {
            let mut tally = SummaryTally::default();
            for profile in profiles.values() {
                tally.add(&gsa_profile::interests_of(profile.expr()));
            }
            tally
        })
    }

    /// Whether the interest tally has been built.
    #[cfg(test)]
    pub(crate) fn tally_built(&self) -> bool {
        self.tally.is_some()
    }

    /// Conservative zero-materialisation pre-filter over a frozen binary
    /// event: `false` proves no stored profile can match, so the caller
    /// may skip decoding entirely. `true` (including probe errors, which
    /// pass through so the decode path reports them) means "decode and
    /// run [`filter_event`](Self::filter_event)". Shares the manager's
    /// warm [`MatchScratch`], so after warm-up a rejected event costs no
    /// heap allocation.
    pub fn could_match_probe(&mut self, probe: &mut gsa_wire::EventProbe<'_>) -> bool {
        self.engine
            .probe_matches(probe, &mut self.scratch)
            .unwrap_or(true)
    }

    /// Filters an event against every stored profile, queueing a
    /// notification per matching profile. Returns the notifications
    /// produced.
    pub fn filter_event(&mut self, event: &Arc<Event>, now: SimTime) -> Vec<Notification> {
        let mut matched = std::mem::take(&mut self.matched);
        self.engine.matches_into(event, &mut self.scratch, &mut matched);
        let mut out = Vec::with_capacity(matched.len());
        for &id in &matched {
            self.notify(id, event, now, &mut out);
        }
        self.matched = matched;
        out
    }

    /// Like [`filter_event`](Self::filter_event) but without touching
    /// client mailboxes: the caller decides which of the produced
    /// notifications are actually queued (the delivery-policy layer —
    /// a suppressed notification must not land in a mailbox either).
    pub fn filter_event_unqueued(
        &mut self,
        event: &Arc<Event>,
        now: SimTime,
    ) -> Vec<Notification> {
        let mut matched = std::mem::take(&mut self.matched);
        self.engine.matches_into(event, &mut self.scratch, &mut matched);
        let mut out = Vec::with_capacity(matched.len());
        for &id in &matched {
            out.push(self.build_notification(id, event, now));
        }
        self.matched = matched;
        out
    }

    /// Filters a batch of events in one pass, queueing notifications
    /// exactly as per-event [`filter_event`](Self::filter_event) calls
    /// would, in event order.
    pub fn filter_events(&mut self, events: &[Arc<Event>], now: SimTime) -> Vec<Notification> {
        let per_event = self.match_batch(events);
        let mut out = Vec::new();
        for (event, ids) in events.iter().zip(per_event) {
            for id in ids {
                self.notify(id, event, now, &mut out);
            }
        }
        out
    }

    /// Batch variant of [`filter_event_unqueued`](Self::filter_event_unqueued):
    /// same match pass as [`filter_events`](Self::filter_events), no
    /// mailbox writes.
    pub fn filter_events_unqueued(
        &mut self,
        events: &[Arc<Event>],
        now: SimTime,
    ) -> Vec<Notification> {
        let per_event = self.match_batch(events);
        let mut out = Vec::new();
        for (event, ids) in events.iter().zip(per_event) {
            for id in ids {
                let n = self.build_notification(id, event, now);
                out.push(n);
            }
        }
        out
    }

    /// One match pass over a batch, per event in arrival order.
    fn match_batch(&mut self, events: &[Arc<Event>]) -> Vec<Vec<ProfileId>> {
        let mut per = Vec::with_capacity(events.len());
        let mut matched = std::mem::take(&mut self.matched);
        for event in events {
            self.engine.matches_into(event, &mut self.scratch, &mut matched);
            per.push(matched.clone());
        }
        self.matched = matched;
        per
    }

    /// Builds the notification for one matched profile without queueing.
    fn build_notification(
        &self,
        id: ProfileId,
        event: &Arc<Event>,
        now: SimTime,
    ) -> Notification {
        let profile = &self.profiles[&id];
        let matched_docs: Vec<DocId> = profile
            .expr()
            .matching_docs(event)
            .into_iter()
            .cloned()
            .collect();
        Notification {
            profile: id,
            client: profile.owner(),
            event: Arc::clone(event),
            matched_docs,
            at: now,
        }
    }

    /// Builds and queues the notification for one matched profile.
    fn notify(
        &mut self,
        id: ProfileId,
        event: &Arc<Event>,
        now: SimTime,
        out: &mut Vec<Notification>,
    ) {
        let notification = self.build_notification(id, event, now);
        self.mailboxes
            .entry(notification.client)
            .or_default()
            .push(notification.clone());
        out.push(notification);
    }

    /// Queues an already-built notification into its client's mailbox —
    /// the admission path for policy-gated deliveries (immediate or
    /// digest-flushed).
    pub fn queue_notification(&mut self, n: &Notification) {
        self.mailboxes.entry(n.client).or_default().push(n.clone());
    }

    /// Drains a client's mailbox.
    pub fn take_notifications(&mut self, client: ClientId) -> Vec<Notification> {
        self.mailboxes.remove(&client).unwrap_or_default()
    }

    /// Peeks at a client's mailbox without draining it.
    pub fn peek_notifications(&self, client: ClientId) -> &[Notification] {
        self.mailboxes
            .get(&client)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total queued notifications across all mailboxes.
    pub fn queued_notifications(&self) -> usize {
        self.mailboxes.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, DocSummary, EventId, EventKind};

    fn event(host: &str, doc: &str) -> Arc<Event> {
        Arc::new(Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, "C"),
            EventKind::DocumentsAdded,
            SimTime::from_millis(5),
        )
        .with_docs(vec![DocSummary::new(doc)]))
    }

    fn client(raw: u64) -> ClientId {
        ClientId::from_raw(raw)
    }

    #[test]
    fn subscribe_filter_notify() {
        let mut subs = SubscriptionManager::new();
        let p = subs
            .subscribe(client(1), parse_profile(r#"host = "London""#).unwrap())
            .unwrap();
        let notifications = subs.filter_event(&event("London", "d1"), SimTime::ZERO);
        assert_eq!(notifications.len(), 1);
        assert_eq!(notifications[0].profile, p);
        assert_eq!(notifications[0].client, client(1));
        assert_eq!(notifications[0].matched_docs, vec![DocId::new("d1")]);
        let inbox = subs.take_notifications(client(1));
        assert_eq!(inbox.len(), 1);
        assert!(subs.take_notifications(client(1)).is_empty());
    }

    #[test]
    fn unsubscribe_is_immediate() {
        let mut subs = SubscriptionManager::new();
        let p = subs
            .subscribe(client(1), parse_profile(r#"host = "London""#).unwrap())
            .unwrap();
        assert!(subs.unsubscribe(p));
        assert!(!subs.unsubscribe(p));
        assert!(subs.filter_event(&event("London", "d"), SimTime::ZERO).is_empty());
    }

    #[test]
    fn unsubscribe_client_removes_all() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.subscribe(client(1), parse_profile(r#"host = "B""#).unwrap()).unwrap();
        subs.subscribe(client(2), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        assert_eq!(subs.unsubscribe_client(client(1)), 2);
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn distinct_clients_distinct_mailboxes() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        subs.subscribe(client(2), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        subs.filter_event(&event("X", "d"), SimTime::ZERO);
        assert_eq!(subs.peek_notifications(client(1)).len(), 1);
        assert_eq!(subs.peek_notifications(client(2)).len(), 1);
        assert_eq!(subs.queued_notifications(), 2);
    }

    #[test]
    fn profile_ids_are_unique_across_removals() {
        let mut subs = SubscriptionManager::new();
        let p1 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.unsubscribe(p1);
        let p2 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn notification_display() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(3), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        let n = subs.filter_event(&event("X", "d"), SimTime::from_millis(7));
        let s = n[0].to_string();
        assert!(s.contains("client-3"));
        assert!(s.contains("X.C"));
    }

    #[test]
    fn interest_summary_unions_profiles() {
        // Profiles stored before the first request are all counted when
        // the tally is built on that request.
        let mut lazy = SubscriptionManager::new();
        lazy.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap())
            .unwrap();
        let q = lazy
            .subscribe(client(2), parse_profile(r#"collection = "B.C""#).unwrap())
            .unwrap();
        lazy.unsubscribe(q);
        lazy.subscribe(client(3), parse_profile(r#"host = "D""#).unwrap())
            .unwrap();
        assert!(!lazy.tally_built());
        let s = lazy.interest_summary();
        assert!(lazy.tally_built());
        assert!(s.may_match("A", "A.X") && s.may_match("D", "D.X"));
        assert!(!s.may_match("B", "B.C"));

        let mut subs = SubscriptionManager::new();
        assert!(subs.interest_summary().is_empty());
        let p = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.subscribe(client(2), parse_profile(r#"collection = "B.C""#).unwrap()).unwrap();
        let s = subs.interest_summary();
        assert!(s.may_match("A", "A.X") && s.may_match("B", "B.C"));
        assert!(!s.may_match("Z", "Z.Z"));
        // An unanchorable profile widens the whole digest.
        subs.subscribe(client(3), parse_profile(r#"kind = "rebuilt""#).unwrap()).unwrap();
        assert!(subs.interest_summary().is_wildcard());
        // Cancellation narrows it back.
        subs.unsubscribe_client(client(3));
        subs.unsubscribe(p);
        let s = subs.interest_summary();
        assert!(!s.may_match("A", "A.X") && s.may_match("B", "B.C"));
    }

    /// The reference the tally must reproduce: the union of every live
    /// profile's digest, folded afresh.
    fn reference_fold(subs: &SubscriptionManager) -> InterestSummary {
        let mut summary = InterestSummary::empty();
        for profile in subs.profiles() {
            summary.union_with(&gsa_profile::interests_of(profile.expr()));
        }
        summary
    }

    /// Distinct `dc.Title` values drawn by [`tally_shape`]: more than a
    /// digest may carry, so the shared key's value union crosses the
    /// bound and falls back below it as profiles leave.
    const TITLES: usize = InterestSummary::MAX_ATTR_VALUES + 4;

    /// Profile shapes covering every union rule. Shapes 0–4 all
    /// constrain `dc.Title`, so the key survives while only they are
    /// live; 5 is anchored without digests; 6 and 7 digest to wildcard;
    /// 8 is unsatisfiable (an empty DNF, the empty digest).
    fn tally_shape(shape: usize, v: usize) -> ProfileExpr {
        let host = format!("H{}", v % 3);
        let t = |k: usize| format!("t{}", (v + k) % TITLES);
        let text = match shape {
            0 => format!(r#"host = "{host}" AND dc.Title = "{}""#, t(0)),
            1 => format!(
                r#"collection = "{host}.C" AND dc.Title in ["{}", "{}"]"#,
                t(0),
                t(1)
            ),
            // A key repeated within one conjunction: first literal wins.
            2 => format!(
                r#"host = "{host}" AND dc.Title = "{}" AND dc.Title = "{}""#,
                t(0),
                t(2)
            ),
            // More keys than a digest carries.
            3 => format!(
                r#"host = "{host}" AND dc.Title = "{}" AND kind = "documents-added"
                   AND dc.Creator = "c{}" AND dc.Subject = "s" AND dc.Date = "d""#,
                t(0),
                v % 2
            ),
            4 => format!(
                r#"(host = "{host}" AND dc.Title = "{}") OR (collection = "X.Y" AND dc.Title = "{}")"#,
                t(0),
                t(3)
            ),
            5 => format!(r#"host in ["{host}", "H9"]"#),
            6 => r#"text ~ "*x*""#.to_owned(),
            7 => format!(r#"NOT host = "{host}""#),
            _ => return ProfileExpr::Or(Vec::new()),
        };
        parse_profile(&text).unwrap()
    }

    /// Seeded property test: random interleavings of subscribe,
    /// unsubscribe, restore (fresh and over a live id) and crash wipes.
    /// After an unchecked prefix (the tally must not exist yet), every
    /// step compares `interest_summary()` with the reference fold and
    /// checks that an unmoved interest version means an unchanged
    /// summary. Runs its cases by hand, like `proptest!` does, so it can
    /// assert at the end that every union rule was exercised.
    #[test]
    fn interest_tally_equals_reference_fold() {
        use proptest::prelude::*;
        let ops = prop::collection::vec((0usize..20, 0usize..1000, 0usize..40), 1..80);
        let cases = (ops, 0usize..8, 0usize..2);
        let mut rng = TestRng::from_name("subs::interest_tally_equals_reference_fold");
        let title = "meta:dc.Title";
        let (mut wildcard, mut unsat, mut full_keys, mut crossed, mut fell_back) = (0, 0, 0, 0, 0);
        for _ in 0..96 {
            let (ops, unchecked, family) = cases.generate(&mut rng);
            let mut subs = SubscriptionManager::new();
            let mut last: Option<(u64, InterestSummary)> = None;
            let mut over_bound = false;
            for (step, (kind, a, s_raw)) in ops.into_iter().enumerate() {
                let shape = if family == 0 {
                    s_raw % 9
                } else if s_raw < 36 {
                    s_raw % 5
                } else {
                    5 + s_raw % 4
                };
                let expr = tally_shape(shape, a);
                let mut live: Vec<ProfileId> = subs.profiles().map(Profile::id).collect();
                live.sort();
                match kind {
                    0..=9 => {
                        subs.subscribe(client(a as u64 % 4), expr).unwrap();
                    }
                    10..=14 => {
                        let id = if live.is_empty() {
                            ProfileId::from_raw(a as u64 % 8)
                        } else {
                            live[a % live.len()]
                        };
                        subs.unsubscribe(id);
                    }
                    15 | 16 if !live.is_empty() => {
                        subs.restore(live[a % live.len()], client(1), expr).unwrap();
                    }
                    15..=18 => {
                        subs.restore(ProfileId::from_raw(a as u64 % 64), client(2), expr)
                            .unwrap();
                    }
                    _ if a % 3 == 0 => subs.wipe_for_crash(),
                    _ => {
                        subs.subscribe(client(3), expr).unwrap();
                    }
                }
                if step < unchecked {
                    assert!(!subs.tally_built(), "built before the first request");
                    continue;
                }
                let version = subs.interest_version();
                let got = subs.interest_summary();
                assert_eq!(got, reference_fold(&subs), "step {step}");
                if let Some((v, prev)) = &last {
                    if *v == version {
                        assert_eq!(&got, prev, "step {step}: version held, summary moved");
                    }
                }
                last = Some((version, got.clone()));

                let digests: Vec<InterestSummary> = subs
                    .profiles()
                    .map(|p| gsa_profile::interests_of(p.expr()))
                    .collect();
                wildcard += usize::from(got.is_wildcard());
                unsat += usize::from(!got.is_empty() && digests.iter().any(|d| d.is_empty()));
                full_keys += usize::from(got.attrs().count() == InterestSummary::MAX_ATTR_DIGESTS);
                let anchored: Vec<&InterestSummary> =
                    digests.iter().filter(|d| !d.is_empty()).collect();
                let shared_values = (!got.is_wildcard() && !anchored.is_empty())
                    .then(|| {
                        anchored
                            .iter()
                            .map(|d| d.attr_constraint(title))
                            .collect::<Option<Vec<_>>>()
                    })
                    .flatten()
                    .map(|sets| {
                        sets.into_iter()
                            .flatten()
                            .collect::<std::collections::BTreeSet<_>>()
                    });
                match shared_values {
                    Some(values) if values.len() > InterestSummary::MAX_ATTR_VALUES => {
                        assert!(got.attr_constraint(title).is_none());
                        crossed += 1;
                        over_bound = true;
                    }
                    Some(_) if over_bound => {
                        assert!(got.attr_constraint(title).is_some());
                        fell_back += 1;
                        over_bound = false;
                    }
                    _ => {}
                }
            }
        }
        for (rule, hits) in [
            ("wildcard", wildcard),
            ("unsatisfiable profile", unsat),
            ("digest-key bound", full_keys),
            ("value bound crossed", crossed),
            ("value bound fallen back", fell_back),
        ] {
            assert!(hits > 0, "{rule} never exercised");
        }
    }

    #[test]
    fn pruning_off_core_never_builds_the_tally() {
        let mut core = crate::AlertingCore::new("A", "gds-1");
        core.startup(SimTime::ZERO);
        let p = core
            .subscribe(client(1), parse_profile(r#"host = "B""#).unwrap())
            .unwrap();
        assert!(core.summary_refresh().outbound.is_empty());
        core.unsubscribe(p);
        assert!(core.summary_refresh().outbound.is_empty());
        core.crash_wipe();
        core.startup(SimTime::from_secs(1));
        assert!(!core.subscriptions().tally_built());
    }

    #[test]
    fn filter_events_batch_equals_per_event_calls() {
        let build = || {
            let mut subs = SubscriptionManager::new();
            subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
            subs.subscribe(client(2), parse_profile(r#"text ~ "*""#).unwrap()).unwrap();
            subs
        };
        let events = vec![event("A", "d1"), event("B", "d2"), event("A", "d3")];
        let mut per_event = build();
        let mut batched = build();
        let singles: Vec<Notification> = events
            .iter()
            .flat_map(|e| per_event.filter_event(e, SimTime::ZERO))
            .collect();
        let batch = batched.filter_events(&events, SimTime::ZERO);
        assert_eq!(singles, batch);
        assert_eq!(per_event.queued_notifications(), batched.queued_notifications());
    }

    #[test]
    fn batch_filter_matches_per_event_filter() {
        let build = || {
            let mut subs = SubscriptionManager::new();
            for c in 0..3u64 {
                let text = format!(r#"host = "H{c}""#);
                subs.subscribe(client(c), parse_profile(&text).unwrap()).unwrap();
            }
            subs.subscribe(client(9), parse_profile(r#"text ~ "*""#).unwrap()).unwrap();
            subs
        };
        let events: Vec<_> = ["H0", "H1", "H2", "H9", "H1"]
            .iter()
            .map(|h| event(h, "d"))
            .collect();
        let mut per_event = build();
        let mut batched = build();
        // One batch pass and one call per event: identical notification
        // streams, in event order, and identical mailboxes.
        let a: Vec<Notification> = events
            .iter()
            .flat_map(|e| per_event.filter_event(e, SimTime::ZERO))
            .collect();
        let b = batched.filter_events(&events, SimTime::ZERO);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9, "four host hits plus one wildcard hit per event");
        for c in [0, 1, 2, 9] {
            assert_eq!(
                per_event.peek_notifications(client(c)),
                batched.peek_notifications(client(c))
            );
        }
        // An unsubscribed profile drops out of batch drains too.
        assert!(batched.unsubscribe(ProfileId::from_raw(3)));
        assert!(batched.filter_events(&[event("Zzz", "d")], SimTime::ZERO).is_empty());
    }

    #[test]
    fn wipe_then_restore_reproduces_the_id_space() {
        let mut subs = SubscriptionManager::new();
        let p1 = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        let p2 = subs.subscribe(client(2), parse_profile(r#"host = "B""#).unwrap()).unwrap();
        subs.unsubscribe(p2);
        subs.filter_event(&event("A", "d"), SimTime::ZERO);
        assert_eq!(subs.queued_notifications(), 1);

        subs.wipe_for_crash();
        assert!(subs.is_empty());
        assert!(subs.filter_event(&event("A", "d"), SimTime::ZERO).is_empty());
        // Mailboxes are client-side state and survive the crash.
        assert_eq!(subs.queued_notifications(), 1);

        // Replay what durable state would hand back.
        subs.restore(p1, client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        subs.set_next_profile_at_least(2);
        assert_eq!(subs.profile(p1).unwrap().owner(), client(1));
        assert_eq!(subs.filter_event(&event("A", "d"), SimTime::ZERO).len(), 1);
        // The allocator resumes past the unsubscribed-high-water mark.
        let p3 = subs.subscribe(client(3), parse_profile(r#"host = "C""#).unwrap()).unwrap();
        assert_ne!(p3, p1);
        assert_ne!(p3, p2);
    }

    #[test]
    fn unqueued_variants_match_but_do_not_touch_mailboxes() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe(client(1), parse_profile(r#"host = "X""#).unwrap()).unwrap();
        let single = subs.filter_event_unqueued(&event("X", "d"), SimTime::ZERO);
        assert_eq!(single.len(), 1);
        assert_eq!(subs.queued_notifications(), 0);
        let batch = subs.filter_events_unqueued(&[event("X", "d")], SimTime::ZERO);
        assert_eq!(batch, single);
        assert_eq!(subs.queued_notifications(), 0);
        // The queueing variant produces the same notifications.
        let queued = subs.filter_event(&event("X", "d"), SimTime::ZERO);
        assert_eq!(queued, single);
        assert_eq!(subs.queued_notifications(), 1);
        // Explicit admission lands in the right mailbox.
        subs.queue_notification(&single[0]);
        assert_eq!(subs.peek_notifications(client(1)).len(), 2);
    }

    #[test]
    fn profiles_accessor() {
        let mut subs = SubscriptionManager::new();
        let p = subs.subscribe(client(1), parse_profile(r#"host = "A""#).unwrap()).unwrap();
        assert!(subs.profile(p).is_some());
        assert_eq!(subs.profiles().count(), 1);
        assert!(!subs.is_empty());
    }
}
