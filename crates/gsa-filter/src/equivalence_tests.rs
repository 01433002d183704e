//! Property tests: the interned engine and the naive linear scan agree
//! on arbitrary profiles and events — including under insert/remove
//! churn — through both the per-event and the batch API.

use crate::{FilterEngine, MatchScratch, NaiveFilter};
use gsa_profile::{AttrValue, Predicate, ProfileAttr, ProfileExpr, Wildcard};
use gsa_store::Query;
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, MetadataRecord, ProfileId, SimTime,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const VOCAB: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon"];

fn arb_value() -> impl Strategy<Value = String> {
    prop::sample::select(VOCAB).prop_map(str::to_string)
}

fn arb_attr() -> impl Strategy<Value = ProfileAttr> {
    prop_oneof![
        Just(ProfileAttr::Host),
        Just(ProfileAttr::Kind),
        Just(ProfileAttr::DocId),
        Just(ProfileAttr::Text),
        Just(ProfileAttr::Meta(keys::SUBJECT.to_string())),
    ]
}

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        arb_value().prop_map(AttrValue::Equals),
        prop::collection::btree_set(arb_value(), 1..3).prop_map(AttrValue::OneOf),
        arb_value().prop_map(|v| AttrValue::Like(Wildcard::new(format!("*{}*", &v[..2])))),
        arb_value().prop_map(|v| AttrValue::Matches(Query::Term(v))),
    ]
}

fn arb_pred() -> impl Strategy<Value = ProfileExpr> {
    prop_oneof![
        (arb_attr(), arb_attr_value())
            .prop_map(|(attr, value)| ProfileExpr::Pred(Predicate::new(attr, value))),
        // Collection predicates get values in `host.name` notation so they
        // have a real chance of matching generated events (whose origin is
        // always `<host>.C`); this exercises the engine's composed
        // collection-key path.
        arb_value().prop_map(|v| {
            ProfileExpr::Pred(Predicate::equals(ProfileAttr::Collection, format!("{v}.C")))
        }),
        arb_value().prop_map(|v| {
            ProfileExpr::Pred(Predicate::new(
                ProfileAttr::Collection,
                AttrValue::Like(Wildcard::new(format!("{}*", &v[..2]))),
            ))
        }),
    ]
}

fn arb_expr() -> impl Strategy<Value = ProfileExpr> {
    arb_pred().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProfileExpr::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(ProfileExpr::Or),
            inner.prop_map(|e| ProfileExpr::Not(Box::new(e))),
        ]
    })
}

fn arb_doc() -> impl Strategy<Value = DocSummary> {
    (
        arb_value(),
        prop::collection::vec(arb_value(), 0..3),
        prop::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(id, subjects, words)| {
            let md: MetadataRecord = subjects
                .into_iter()
                .map(|s| (keys::SUBJECT, s))
                .collect();
            DocSummary::new(id)
                .with_metadata(md)
                .with_excerpt(words.join(" "))
        })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        arb_value(),
        prop::sample::select(&EventKind::ALL[..]),
        prop::collection::vec(arb_doc(), 0..3),
    )
        .prop_map(|(host, kind, docs)| {
            Event::new(
                EventId::new(host.clone(), 1),
                CollectionId::new(host, "C"),
                kind,
                SimTime::ZERO,
            )
            .with_docs(docs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both engines report exactly the same profile set for any event.
    /// The interned engine is driven through the scratch API and, with a
    /// separate scratch, through the batch API, so the hot paths are the
    /// ones being cross-checked.
    #[test]
    fn engines_agree(
        exprs in prop::collection::vec(arb_expr(), 1..8),
        events in prop::collection::vec(arb_event(), 1..8),
    ) {
        let mut fast = FilterEngine::new();
        let mut naive = NaiveFilter::new();
        for (i, expr) in exprs.iter().enumerate() {
            let id = ProfileId::from_raw(i as u64);
            fast.insert(id, expr).unwrap();
            naive.insert(id, expr.clone());
        }
        let mut scratch = MatchScratch::new();
        let mut matched = Vec::new();
        let batched = fast.matches_batch(&events, &mut MatchScratch::new());
        prop_assert_eq!(batched.len(), events.len());
        for (event, from_batch) in events.iter().zip(batched) {
            let expected = naive.matches(event);
            fast.matches_into(event, &mut scratch, &mut matched);
            prop_assert_eq!(&matched, &expected);
            prop_assert_eq!(from_batch, expected);
        }
    }

    /// Matching agrees with direct expression evaluation.
    #[test]
    fn engine_agrees_with_expr_eval(expr in arb_expr(), event in arb_event()) {
        let mut fast = FilterEngine::new();
        fast.insert(ProfileId::from_raw(0), &expr).unwrap();
        let engine_says = !fast.matches(&event).is_empty();
        prop_assert_eq!(engine_says, expr.matches_event(&event));
    }

    /// Removal leaves the remaining profiles' behaviour untouched.
    #[test]
    fn removal_is_clean(
        exprs in prop::collection::vec(arb_expr(), 2..6),
        event in arb_event(),
    ) {
        let mut fast = FilterEngine::new();
        for (i, expr) in exprs.iter().enumerate() {
            fast.insert(ProfileId::from_raw(i as u64), expr).unwrap();
        }
        fast.remove(ProfileId::from_raw(0));
        let mut expected = BTreeSet::new();
        for (i, expr) in exprs.iter().enumerate().skip(1) {
            if expr.matches_event(&event) {
                expected.insert(ProfileId::from_raw(i as u64));
            }
        }
        let got: BTreeSet<ProfileId> = fast.matches(&event).into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// Interleaved removals and re-insertions (slot reuse in the interned
    /// engine) keep both match APIs in agreement with the naive reference.
    #[test]
    fn engines_agree_under_churn(
        exprs in prop::collection::vec(arb_expr(), 4..10),
        churn in prop::collection::vec((0usize..10, arb_expr()), 1..6),
        events in prop::collection::vec(arb_event(), 1..5),
    ) {
        let mut fast = FilterEngine::new();
        let mut naive = NaiveFilter::new();
        for (i, expr) in exprs.iter().enumerate() {
            let id = ProfileId::from_raw(i as u64);
            fast.insert(id, expr).unwrap();
            naive.insert(id, expr.clone());
        }
        // Alternate removing and replacing profiles; indices may repeat so
        // double-removals and reinserts after removal are exercised too.
        for (step, (slot, replacement)) in churn.iter().enumerate() {
            let id = ProfileId::from_raw((slot % exprs.len()) as u64);
            if step % 2 == 0 {
                prop_assert_eq!(fast.remove(id), naive.remove(id));
            } else {
                fast.insert(id, replacement).unwrap();
                naive.insert(id, replacement.clone());
            }
        }
        prop_assert_eq!(fast.len(), naive.len());
        let mut scratch = MatchScratch::new();
        let mut matched = Vec::new();
        let batched = fast.matches_batch(&events, &mut MatchScratch::new());
        prop_assert_eq!(batched.len(), events.len());
        for (event, from_batch) in events.iter().zip(batched) {
            let expected = naive.matches(event);
            fast.matches_into(event, &mut scratch, &mut matched);
            prop_assert_eq!(&matched, &expected);
            prop_assert_eq!(from_batch, expected);
        }
    }
}
