//! Per-layer replays: the run's own inputs pushed through one crate at a
//! time, outside the simulator, so each layer's cost is measured on
//! exactly the work the workload gives it.

use crate::drive::{Delivery, StoreOp};
use crate::report::{metric, Metric};
use crate::workload::Inputs;
use gsa_alerts::{fingerprint, AlertEngine, AlertPolicyConfig};
use gsa_bench::runners::{rebuild_docs, rebuild_event};
use gsa_filter::{FilterEngine, MatchScratch};
use gsa_greenstone::{CollectionConfig, Server};
use gsa_profile::{dnf::to_dnf, parse_profile};
use gsa_state::{JournalConfig, JournalStateStore, MemMedium, StateStore};
use gsa_types::{CollectionName, Event, HostName, ProfileId, SimTime};
use gsa_wire::codec::{event_from_xml, event_to_xml};
use gsa_wire::{parse_document, FrozenBytes, Payload};
use gsa_workload::schedule::Rebuild;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Mean microseconds per item of `n` items taking `started.elapsed()`.
fn us_per(started: Instant, n: usize) -> f64 {
    started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// The rebuild events of the run, as their publishers announce them.
fn events_of(schedule: &[Rebuild]) -> Vec<Event> {
    schedule
        .iter()
        .enumerate()
        .map(|(k, r)| rebuild_event(k, &r.collection, &rebuild_docs(k, r.docs), r.at))
        .collect()
}

/// `wire.*`: each event through the v1 XML codec, the v2 encode-once
/// payload, its decoder and its attribute probe. Returns the frozen
/// payloads for the filter probe replay.
fn wire(events: &[Event], out: &mut Vec<Metric>) -> Vec<FrozenBytes> {
    let n = events.len();
    let started = Instant::now();
    let texts: Vec<String> = events.iter().map(|e| event_to_xml(e).to_string()).collect();
    out.push(metric("wire.encode_xml_us", us_per(started, n), "us"));

    let started = Instant::now();
    for text in &texts {
        let el = parse_document(text).expect("own XML parses");
        black_box(event_from_xml(&el).expect("own XML decodes"));
    }
    out.push(metric("wire.decode_xml_us", us_per(started, n), "us"));

    let started = Instant::now();
    let frozen: Vec<FrozenBytes> = events
        .iter()
        .map(|e| {
            let mut payload = Payload::from(event_to_xml(e));
            payload.freeze();
            payload.frozen().expect("just frozen").clone()
        })
        .collect();
    out.push(metric("wire.encode_v2_us", us_per(started, n), "us"));

    let started = Instant::now();
    for bytes in &frozen {
        let payload = Payload::from_frozen(bytes.clone());
        black_box(payload.decode_event().expect("own v2 decodes"));
    }
    out.push(metric("wire.decode_v2_us", us_per(started, n), "us"));

    let started = Instant::now();
    for bytes in &frozen {
        let payload = Payload::from_frozen(bytes.clone());
        let mut probe = payload.probe_event().expect("own v2 event probes");
        while let Some(doc) = probe.next_doc().expect("own v2 docs walk") {
            black_box(doc.id());
        }
    }
    out.push(metric("wire.probe_us", us_per(started, n), "us"));
    frozen
}

/// `filter.*`: one engine per server holding that server's profiles,
/// then every event matched (and probed) at every server.
fn filter(inputs: &Inputs, events: &[Event], frozen: &[FrozenBytes], out: &mut Vec<Metric>) {
    let mut engines: BTreeMap<&HostName, FilterEngine> = BTreeMap::new();
    let profiles = &inputs.population.profiles;
    let started = Instant::now();
    for (p, (host, _, expr)) in profiles.iter().enumerate() {
        engines
            .entry(host)
            .or_default()
            .insert(ProfileId::from_raw(p as u64), expr)
            .expect("generated profile indexes");
    }
    out.push(metric(
        "filter.insert_us",
        us_per(started, profiles.len()),
        "us",
    ));

    let mut scratch = MatchScratch::new();
    let mut matched = Vec::new();
    let mut matches = 0usize;
    let started = Instant::now();
    for event in events {
        for engine in engines.values() {
            engine.matches_into(event, &mut scratch, &mut matched);
            matches += matched.len();
        }
    }
    out.push(metric(
        "filter.match_us_per_event",
        us_per(started, events.len()),
        "us",
    ));

    let started = Instant::now();
    for bytes in frozen {
        let payload = Payload::from_frozen(bytes.clone());
        for engine in engines.values() {
            let mut probe = payload.probe_event().expect("own v2 event probes");
            black_box(
                engine
                    .probe_matches(&mut probe, &mut scratch)
                    .expect("own v2 probes"),
            );
        }
    }
    out.push(metric(
        "filter.probe_us_per_event",
        us_per(started, frozen.len()),
        "us",
    ));
    out.push(metric(
        "filter.matches_per_event",
        matches as f64 / events.len().max(1) as f64,
        "count",
    ));
    let entries: usize = engines.values().map(|e| e.stats().index_entries).sum();
    out.push(metric("filter.index_entries", entries as f64, "count"));
}

/// `profile.*`: every profile text parsed, every expression normalised.
fn profile(inputs: &Inputs, out: &mut Vec<Metric>) {
    let n = inputs.texts.len();
    let started = Instant::now();
    for text in &inputs.texts {
        black_box(parse_profile(text).expect("generated profile parses"));
    }
    out.push(metric("profile.parse_us", us_per(started, n), "us"));
    let started = Instant::now();
    for (_, _, expr) in &inputs.population.profiles {
        black_box(to_dnf(expr).expect("generated profile normalises"));
    }
    out.push(metric("profile.dnf_us", us_per(started, n), "us"));
}

/// `greenstone.build_us`: every rebuild's document set built into a
/// standalone collection (import, index, classify) with no alerting.
fn greenstone(schedule: &[Rebuild], out: &mut Vec<Metric>) {
    let mut server = Server::new("replay");
    let names: Vec<CollectionName> = schedule
        .iter()
        .map(|r| CollectionName::new(format!("{}-{}", r.collection.host(), r.collection.name())))
        .collect();
    for name in &names {
        let _ = server.add_collection(CollectionConfig::simple(name.clone(), name.as_str()));
    }
    let docs: Vec<_> = schedule
        .iter()
        .enumerate()
        .map(|(k, r)| rebuild_docs(k, r.docs))
        .collect();
    let started = Instant::now();
    for (name, batch) in names.iter().zip(docs) {
        black_box(server.rebuild(name, batch).expect("collection exists"));
    }
    out.push(metric(
        "greenstone.build_us",
        us_per(started, schedule.len()),
        "us",
    ));
}

/// `alerts.observe_us`: every delivery through an observe-only policy
/// engine, fingerprinted as the core does (profile, collection, kind).
fn alerts(deliveries: &[Delivery], events: &[Event], out: &mut Vec<Metric>) {
    let mut engine: AlertEngine<u32> = AlertEngine::new(AlertPolicyConfig::observe_only());
    let keyed: Vec<(u64, String, SimTime)> = deliveries
        .iter()
        .map(|d| {
            let origin = d.origin.to_string();
            let kind = events[d.rebuild].kind.as_str();
            (
                fingerprint(d.profile as u64, [origin.as_str(), kind]),
                origin,
                d.at,
            )
        })
        .collect();
    let started = Instant::now();
    for (fp, origin, at) in &keyed {
        black_box(engine.observe(*fp, origin, 0, *at));
    }
    out.push(metric(
        "alerts.observe_us",
        us_per(started, keyed.len()),
        "us",
    ));
}

/// `state.append_us`: the run's subscribe and unsubscribe records
/// appended to a journal on a simulated disk, synced per record.
fn state(inputs: &Inputs, ops: &[StoreOp], out: &mut Vec<Metric>) {
    let mut store = JournalStateStore::new(MemMedium::new(), JournalConfig::default());
    let profiles = &inputs.population.profiles;
    let started = Instant::now();
    for op in ops {
        match *op {
            StoreOp::Subscribe(p, pid, client) => {
                store.record_subscribe(pid, client, &profiles[p].2)
            }
            StoreOp::Unsubscribe(pid) => store.record_unsubscribe(pid),
        }
    }
    out.push(metric("state.append_us", us_per(started, ops.len()), "us"));
}

/// Runs every replay over the run's inputs, schedule, deliveries and
/// state-store operations.
pub fn all(
    inputs: &Inputs,
    schedule: &[Rebuild],
    deliveries: &[Delivery],
    ops: &[StoreOp],
) -> Vec<Metric> {
    let mut out = Vec::new();
    let events = events_of(schedule);
    let frozen = wire(&events, &mut out);
    filter(inputs, &events, &frozen, &mut out);
    profile(inputs, &mut out);
    greenstone(schedule, &mut out);
    alerts(deliveries, &events, &mut out);
    state(inputs, ops, &mut out);
    out
}
