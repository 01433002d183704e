//! Criterion version of experiment E3: the interned equality-preferred
//! engine (scratch API) vs a naive linear scan, swept over profile
//! counts (paper Section 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsa_filter::{FilterEngine, MatchScratch, NaiveFilter};
use gsa_types::{Event, EventId, EventKind, ProfileId, SimTime};
use gsa_workload::{DocumentGenerator, GsWorld, ProfileMix, ProfilePopulation, WorldParams};
use std::hint::black_box;

fn sample_events(world: &GsWorld, n: usize) -> Vec<Event> {
    let mut gen = DocumentGenerator::new(31);
    let publics = world.public_collections();
    (0..n)
        .map(|i| {
            let c = publics[i % publics.len()].clone();
            Event::new(
                EventId::new(c.host().clone(), i as u64),
                c,
                EventKind::CollectionRebuilt,
                SimTime::ZERO,
            )
            .with_docs(
                gen.documents(&format!("e{i}"), 3)
                    .iter()
                    .map(|d| d.summary(200))
                    .collect(),
            )
        })
        .collect()
}

fn bench_filter(c: &mut Criterion) {
    let world = GsWorld::generate(&WorldParams {
        seed: 41,
        servers: 20,
        ..WorldParams::default()
    });
    let events = sample_events(&world, 50);

    let mut group = c.benchmark_group("e3_filter_throughput");
    group.throughput(Throughput::Elements(events.len() as u64));
    for &count in &[100usize, 1_000, 10_000] {
        let population = ProfilePopulation::generate(42, &world, count, &ProfileMix::default());
        let mut fast = FilterEngine::new();
        let mut naive = NaiveFilter::new();
        for (i, (_, _, expr)) in population.profiles.iter().enumerate() {
            fast.insert(ProfileId::from_raw(i as u64), expr).expect("indexable");
            naive.insert(ProfileId::from_raw(i as u64), expr.clone());
        }
        group.bench_with_input(
            BenchmarkId::new("interned_scratch", count),
            &events,
            |b, events| {
                let mut scratch = MatchScratch::new();
                let mut matched = Vec::new();
                b.iter(|| {
                    for e in events {
                        fast.matches_into(e, &mut scratch, &mut matched);
                        black_box(matched.len());
                    }
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("naive", count), &events, |b, events| {
            b.iter(|| {
                for e in events {
                    black_box(naive.matches(e));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_filter);
criterion_main!(benches);
